//! Accounting plane of [`super::merge_into_slice`]: the exact comparison
//! count of the merge schedule, derived from the sorted runs without
//! merging them.
//!
//! The schedule is [`super::premerge_plan`]'s pair pre-merges followed by
//! a loser tree over the resulting leaves. A pair pre-merge costs
//! [`pair_merge_cost`]. The loser tree's count is a function of when each
//! leaf exhausts:
//!
//! * **Build.** One comparison per internal node whose two child subtrees
//!   both hold a non-empty run.
//! * **Replays.** Emitting an element from leaf `w` replays `w`'s root
//!   path, comparing at every level where both `w`'s side and the sibling
//!   subtree still hold a live run. The sibling subtree dies at the
//!   exhaustion of its last live leaf — the largest `(last, leaf)` pair in
//!   it, since the tree emits in `(key, leaf)` order. So a non-final
//!   emission of `w` pays one comparison per sibling subtree that dies
//!   after it, and the emission that exhausts `w` is costed with `w`
//!   already dead: it also needs another live leaf on `w`'s own side.
//!
//! Counting `w`'s emissions before an event is a binary search (`x ≤ key`
//! when `w` precedes the event's leaf, `x < key` otherwise), so the whole
//! count costs `O(k · lg k · lg n)` for `k` leaves — no element moves.
//! The tail bulk copy of [`super::tournament_merge`] needs no special
//! case: with one live leaf left every replay costs zero.

use crate::kernels::simd::pair_merge_cost;

/// Comparisons of the merge schedule, split by stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleCost {
    /// Pair pre-merges (the analytic two-way merge count).
    pub pair: u64,
    /// The loser tree over the pre-merged leaves, tail copy included.
    pub tree: u64,
}

/// A leaf's exhaustion event: its last element and its index, ordered as
/// the tree emits them.
type Event<'a, T> = (&'a T, usize);

/// The exact comparison count [`super::tournament_merge`] returns for
/// `runs` (split into its pair and tree parts), computed without merging.
pub fn schedule_comparisons<T: Ord>(runs: &[&[T]]) -> ScheduleCost {
    if runs.len() < 2 {
        return ScheduleCost::default();
    }
    let plan = super::premerge_plan(runs);
    let pair = plan
        .iter()
        .filter(|l| l.len() == 2)
        .map(|l| pair_merge_cost(runs[l.start], runs[l.start + 1]))
        .sum();
    let leaves: Vec<&[&[T]]> = plan.into_iter().map(|l| &runs[l]).collect();
    ScheduleCost {
        pair,
        tree: tree_comparisons(&leaves),
    }
}

/// Loser-tree comparisons over `leaves`, each the union of its (sorted)
/// parts — one run, or the two runs a pre-merge fused.
fn tree_comparisons<T: Ord>(leaves: &[&[&[T]]]) -> u64 {
    let k_pad = leaves.len().max(1).next_power_of_two();
    // death[node]: the last exhaustion event in node's subtree (`None` when
    // the subtree never held an element).
    let mut death: Vec<Option<Event<'_, T>>> = vec![None; 2 * k_pad];
    for (w, parts) in leaves.iter().enumerate() {
        death[k_pad + w] = parts.iter().filter_map(|p| p.last()).max().map(|x| (x, w));
    }
    let mut cmps = 0u64;
    for node in (1..k_pad).rev() {
        let (l, r) = (death[2 * node], death[2 * node + 1]);
        cmps += u64::from(l.is_some() && r.is_some());
        death[node] = l.max(r);
    }
    for (w, parts) in leaves.iter().enumerate() {
        let Some(exhaust) = death[k_pad + w] else {
            continue;
        };
        let non_final = parts.iter().map(|p| p.len()).sum::<usize>() - 1;
        // Last death among w's side of the path minus w itself.
        let mut rest: Option<Event<'_, T>> = None;
        let mut node = k_pad + w;
        while node > 1 {
            if let Some(sib) = death[node ^ 1] {
                cmps += emitted_before(parts, w, sib).min(non_final) as u64;
                cmps += u64::from(sib > exhaust && rest > Some(exhaust));
                rest = rest.max(Some(sib));
            }
            node >>= 1;
        }
    }
    cmps
}

/// Elements of leaf `w` emitted before event `(key, r)`, `r ≠ w`: ties on
/// the key go to the lower leaf index.
fn emitted_before<T: Ord>(parts: &[&[T]], w: usize, (key, r): Event<'_, T>) -> usize {
    parts
        .iter()
        .map(|p| {
            if w < r {
                p.partition_point(|x| x <= key)
            } else {
                p.partition_point(|x| x < key)
            }
        })
        .sum()
}
