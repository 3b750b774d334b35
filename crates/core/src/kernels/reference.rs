//! Pre-kernel reference implementations, kept verbatim as oracles.
//!
//! [`ReferenceLoserTree`] is the original branchy, `Option`-replay loser
//! tree the crate shipped before the branchless rewrite in
//! [`crate::losertree`]. It stays here so (a) equivalence tests can assert
//! the rewrite emits the identical element sequence *and* the identical
//! comparison count on arbitrary run sets, and (b) `kernel_bench` can
//! measure the before→after wall-clock delta on the real code, not a
//! synthetic stand-in.

/// The original loser tree: `Option<T>` heads re-read from the runs on
/// every match, branchy three-way compare in the replay loop.
pub struct ReferenceLoserTree<'a, T> {
    runs: Vec<&'a [T]>,
    pos: Vec<usize>,
    tree: Vec<usize>,
    k_pad: usize,
    comparisons: u64,
}

impl<'a, T: Ord + Copy> ReferenceLoserTree<'a, T> {
    /// Build a tree over `runs`. Empty runs are allowed.
    pub fn new(runs: Vec<&'a [T]>) -> Self {
        let k = runs.len().max(1);
        let k_pad = k.next_power_of_two();
        let pos = vec![0; runs.len()];
        let mut lt = Self {
            runs,
            pos,
            tree: vec![usize::MAX; k_pad],
            k_pad,
            comparisons: 0,
        };
        lt.rebuild();
        lt
    }

    #[inline]
    fn head(&self, r: usize) -> Option<T> {
        if r >= self.runs.len() {
            return None;
        }
        self.runs[r].get(self.pos[r]).copied()
    }

    fn rebuild(&mut self) {
        let mut winners = vec![usize::MAX; 2 * self.k_pad];
        for leaf in 0..self.k_pad {
            winners[self.k_pad + leaf] = leaf;
        }
        for node in (1..self.k_pad).rev() {
            let a = winners[2 * node];
            let b = winners[2 * node + 1];
            let (w, l) = self.play(a, b);
            winners[node] = w;
            self.tree[node] = l;
        }
        self.tree[0] = winners.get(1).copied().unwrap_or(usize::MAX);
    }

    #[inline]
    fn play(&mut self, a: usize, b: usize) -> (usize, usize) {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => {
                self.comparisons += 1;
                match x.cmp(&y) {
                    core::cmp::Ordering::Less => (a, b),
                    core::cmp::Ordering::Greater => (b, a),
                    core::cmp::Ordering::Equal => (a.min(b), a.max(b)),
                }
            }
            (Some(_), None) => (a, b),
            (None, Some(_)) => (b, a),
            (None, None) => (a.min(b), a.max(b)),
        }
    }

    /// Pop the globally smallest remaining element.
    pub fn next_element(&mut self) -> Option<T> {
        let w = self.tree[0];
        let val = self.head(w)?;
        self.pos[w] += 1;
        let mut cur = w;
        let mut node = (self.k_pad + w) / 2;
        while node >= 1 {
            let opponent = self.tree[node];
            let (win, lose) = self.play(cur, opponent);
            self.tree[node] = lose;
            cur = win;
            node /= 2;
        }
        self.tree[0] = cur;
        Some(val)
    }

    /// Total comparisons performed.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }
}

impl<T: Ord + Copy> Iterator for ReferenceLoserTree<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.next_element()
    }
}

/// Reference k-way merge into an exactly-sized slice; returns comparisons.
/// Mirrors `losertree::merge_into_slice` minus the 0/1-run fast paths so
/// benchmarks compare the tree loops, not the memcpy shortcuts.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_into_slice_ref<T: Ord + Copy>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output slice must fit the merge exactly");
    match runs.len() {
        0 => 0,
        1 => {
            out.copy_from_slice(runs[0]);
            0
        }
        _ => {
            let mut lt = ReferenceLoserTree::new(runs.to_vec());
            for slot in out.iter_mut() {
                *slot = lt.next_element().expect("run length accounting broken");
            }
            lt.comparisons()
        }
    }
}

/// Reference execution of the merge *schedule* that
/// `losertree::merge_into_slice` charges: the same pair pre-merge plan,
/// each pair fused by a counted two-way merge loop, then
/// [`ReferenceLoserTree`] over the resulting leaves. Its count is the
/// oracle for the analytic accounting plane
/// (`losertree::schedule_comparisons`); a plain reference tree over the
/// input runs is not, once a duplicate-heavy run shifts the pairing.
///
/// # Panics
/// Panics if `out.len()` differs from the total run length.
pub fn merge_schedule_ref<T: Ord + Copy>(runs: &[&[T]], out: &mut [T]) -> u64 {
    let mut cmps = 0u64;
    let leaves: Vec<Vec<T>> = crate::losertree::premerge_plan(runs)
        .into_iter()
        .map(|l| match runs[l] {
            [a, b] => {
                let (mut i, mut j) = (0usize, 0usize);
                let mut fused = Vec::with_capacity(a.len() + b.len());
                while i < a.len() && j < b.len() {
                    cmps += 1;
                    if a[i] <= b[j] {
                        fused.push(a[i]);
                        i += 1;
                    } else {
                        fused.push(b[j]);
                        j += 1;
                    }
                }
                fused.extend_from_slice(&a[i..]);
                fused.extend_from_slice(&b[j..]);
                fused
            }
            ref single => single.concat(),
        })
        .collect();
    let refs: Vec<&[T]> = leaves.iter().map(Vec::as_slice).collect();
    cmps + merge_into_slice_ref(&refs, out)
}

/// Reference run formation: `sort_unstable` on every run — the "before"
/// side of the `kernel_bench` run-formation cell.
pub fn form_runs_ref<T: Ord>(data: &mut [T], run_elems: usize) {
    for run in data.chunks_mut(run_elems.max(2)) {
        run.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_merge_sorts() {
        let runs = [vec![1u64, 4, 9], vec![2, 5], vec![0, 3, 8], vec![]];
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut out = vec![0u64; 8];
        let cmps = merge_into_slice_ref(&refs, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 8, 9]);
        assert!(cmps > 0);
    }

    #[test]
    fn reference_run_formation_sorts_each_run() {
        let mut v = vec![5u64, 3, 1, 9, 7, 2, 8, 0];
        form_runs_ref(&mut v, 4);
        assert_eq!(v, vec![1, 3, 5, 9, 0, 2, 7, 8]);
    }
}
