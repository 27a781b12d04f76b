//! The per-node entry list of Algorithm 1 (`list_v`).
//!
//! Entries are kept sorted by `(κ, d, src)` (paper: "ordered by key value
//! κ, with ties first resolved by the value of d, and then by the label of
//! the source vertex"). Positions are 1-based: `pos(Z)` = number of
//! entries at or below `Z`.
//!
//! # Layout
//!
//! Invariant 2 bounds the entries *per source* (`sqrt(Δh/k)+1`), not the
//! list: with `k` sources it holds `γΔ + k` rows, a few hundred per node
//! on an all-pairs run, and every delivered message asks it a per-source
//! question. So the 32-byte [`Entry`] rows are read only where a row is
//! wanted — the probes of the one ordered search, and rows of the
//! message's own source — and everything that walks the list walks one of
//! two narrow columns kept beside the rows, index for index:
//!
//! * `srcs[i] = entries[i].src`, 4 bytes a row. Step 13's count, `ν`,
//!   the per-source total, INSERT's eviction scan and the SP demotion
//!   all scan this column; the counts are branch-free sums the compiler
//!   vectorises.
//! * `ceil[i] = ⌈κ(entries[i])⌉`, computed once when the row is
//!   inserted (one integer square root), so the schedule value
//!   `⌈κ⌉ + pos` of any row is an add.
//!
//! # The send cursor
//!
//! `cursor` is the index of the lowest unsent row (`len()` if there is
//! none). The schedule value is strictly increasing in the index (κ is
//! non-decreasing, `pos` strictly increasing), so if the lowest unsent
//! row is not due in round `r`, no unsent row is: [`NodeList::find_send`]
//! and [`NodeList::earliest_schedule_ge`] read that one row's value and
//! nothing else. The cursor is maintained by the three operations that
//! can move it — an insert at or below it, the eviction of the row it
//! points at, and `mark_sent` on that row — and rebuilt by
//! [`NodeList::restore_entries`]. While Invariant 1 holds, a new row is
//! never inserted below a sent one (its value would be at most the sent
//! row's old value, which is at most the current round), so the sent
//! rows are a prefix and advancing the cursor is a single step; only the
//! late-arrival regime (see `find_send`) leaves sent rows above it to
//! step over.

use crate::config::AdmissionRule;
use crate::entry::Entry;
use crate::key::Gamma;
use dw_graph::NodeId;
use std::cmp::Ordering;

/// `list_v`: the sorted entry list plus its key context.
#[derive(Debug, Clone)]
pub struct NodeList {
    gamma: Gamma,
    entries: Vec<Entry>,
    /// `⌈κ⌉` of each row.
    ceil: Vec<u64>,
    /// `src` of each row.
    srcs: Vec<NodeId>,
    /// Index of the lowest unsent row; `len()` when every row is sent.
    cursor: usize,
}

/// Rows of `col` that belong to `src`.
#[inline]
fn count_src(col: &[NodeId], src: NodeId) -> u32 {
    col.iter().map(|&s| (s == src) as u32).sum()
}

impl NodeList {
    pub fn new(gamma: Gamma) -> Self {
        NodeList {
            gamma,
            entries: Vec::new(),
            ceil: Vec::new(),
            srcs: Vec::new(),
            cursor: 0,
        }
    }

    #[inline]
    pub fn gamma(&self) -> Gamma {
        self.gamma
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Total order `(κ, d, src)`.
    fn cmp_entries(&self, a: &Entry, b: &Entry) -> Ordering {
        self.gamma
            .cmp_kappa(a.d, a.l, b.d, b.l)
            .then(a.d.cmp(&b.d))
            .then(a.src.cmp(&b.src))
    }

    /// The send schedule value `⌈κ(Z)⌉ + pos(Z)` of the entry at `idx`.
    /// Strictly increasing in `idx` (κ is non-decreasing, pos strictly
    /// increasing), which is what lets the send lookup read one row and
    /// guarantees at most one entry is sent per round.
    #[inline]
    pub fn schedule_value(&self, idx: usize) -> u64 {
        self.ceil[idx] + (idx as u64 + 1)
    }

    /// Where `e` goes: after every row at or below it in list order
    /// (stable insertion — triple-equal rows sort below the newcomer).
    /// The one ordered search an insert or a Step-13 admission makes.
    fn insertion_point(&self, e: &Entry) -> usize {
        self.entries
            .partition_point(|x| self.cmp_entries(x, e) != Ordering::Greater)
    }

    /// Procedure INSERT of the paper: insert `e` in sorted order (after
    /// equal keys), then remove the closest non-SP entry *for the same
    /// source* above the insertion point, if any. Returns the index where
    /// `e` landed.
    pub fn insert(&mut self, e: Entry) -> usize {
        let idx = self.insertion_point(&e);
        self.insert_at(idx, e);
        idx
    }

    /// Step 13 in one pass: admit the non-SP candidate `cand` iff fewer
    /// than `nu` entries for its source are already counted below it
    /// under `rule`, and INSERT it at the point the count was taken at.
    /// Returns where it landed, or `None` if it was turned away.
    pub fn admit(&mut self, cand: Entry, nu: u32, rule: AdmissionRule) -> Option<usize> {
        let idx = self.insertion_point(&cand);
        let below = match rule {
            // "Below" is list order: the `(κ, d, src)` triple, with
            // triple-equal entries sorting below the newcomer (stable
            // insertion). Using the same order as `pos`/`ν` is what makes
            // the position-transfer lemmas (Lemma II.7 / Corollary II.8)
            // and hence Invariants 1–2 go through; counting by strict `κ`
            // alone over-admits when keys tie.
            AdmissionRule::ListOrder => count_src(&self.srcs[..idx], cand.src),
            AdmissionRule::StrictKappa => self.count_lt_kappa_for_source(&cand),
        };
        if below >= nu {
            return None;
        }
        self.insert_at(idx, cand);
        Some(idx)
    }

    /// INSERT with the insertion point already known. The new row and the
    /// eviction are one move: when a row above is evicted, the rows in
    /// between shift up into its place and the length does not change.
    fn insert_at(&mut self, idx: usize, e: Entry) {
        let ceil = self.gamma.ceil_kappa(e.d, e.l);
        // Step 2-4: the closest non-SP entry for e.src above idx.
        let evict = (idx..self.len()).find(|&j| self.srcs[j] == e.src && !self.entries[j].flag_sp);
        match evict {
            Some(j) => {
                self.entries.copy_within(idx..j, idx + 1);
                self.ceil.copy_within(idx..j, idx + 1);
                self.srcs.copy_within(idx..j, idx + 1);
                self.entries[idx] = e;
                self.ceil[idx] = ceil;
                self.srcs[idx] = e.src;
            }
            None => {
                self.entries.insert(idx, e);
                self.ceil.insert(idx, ceil);
                self.srcs.insert(idx, e.src);
            }
        }
        // The cursor, in post-insert indices: rows at or above `idx`
        // moved up by one, then the evicted row (now at `j + 1`) left.
        if idx <= self.cursor {
            self.cursor = if e.sent { self.cursor + 1 } else { idx };
        }
        if let Some(j) = evict {
            match (j + 1).cmp(&self.cursor) {
                Ordering::Less => self.cursor -= 1,
                Ordering::Equal => self.skip_sent(),
                Ordering::Greater => {}
            }
        }
    }

    /// Move the cursor up to the next unsent row.
    fn skip_sent(&mut self) {
        while self.cursor < self.len() && self.entries[self.cursor].sent {
            self.cursor += 1;
        }
    }

    /// Number of entries for `e.src` with key strictly below `e`'s κ
    /// (the [`crate::config::AdmissionRule::StrictKappa`] ablation). The
    /// rows with a smaller κ are a prefix of the list.
    pub fn count_lt_kappa_for_source(&self, e: &Entry) -> u32 {
        let end = self
            .entries
            .partition_point(|x| self.gamma.cmp_kappa(x.d, x.l, e.d, e.l) == Ordering::Less);
        count_src(&self.srcs[..end], e.src)
    }

    /// `Z.ν`: number of entries for the source of the entry at `idx`, at
    /// or below `idx`.
    pub fn nu(&self, idx: usize) -> u32 {
        count_src(&self.srcs[..=idx], self.srcs[idx])
    }

    /// Total entries for `src`.
    pub fn count_for_source(&self, src: u32) -> usize {
        count_src(&self.srcs, src) as usize
    }

    /// The entry to announce in round `r`: the lowest-positioned *unsent*
    /// entry whose schedule value `⌈κ⌉ + pos` is `<= r`. Schedule values
    /// increase with the index, so that is the cursor's row or nothing.
    ///
    /// In the regimes where Invariant 1 holds (every entry arrives before
    /// its announcement round — Lemma II.12) this is exactly the paper's
    /// rule "send the entry with `⌈κ⌉ + pos = r`": schedule values only
    /// grow, so the first time an unsent entry satisfies `<= r` is the
    /// equality round. When the invariant is violated (tight hop budgets;
    /// see the E3 discussion) an entry can arrive with its round already
    /// past; the paper's literal rule would strand it unannounced and
    /// break the shortest-path chains. The `<=` re-arms such entries — at
    /// most one send per round, so the CONGEST constraint is untouched,
    /// and [`crate::node::NodeStats::late_sends`] counts how often it
    /// actually happens.
    #[inline]
    pub fn find_send(&self, r: u64) -> Option<usize> {
        (self.cursor < self.len() && self.schedule_value(self.cursor) <= r).then_some(self.cursor)
    }

    /// Smallest round `>= after` in which [`NodeList::find_send`] could
    /// fire, if any. The engine's active-set refresh asks this of every
    /// active or dirty node in every executed round, not only when
    /// fast-forwarding over silence, so it has to be as cheap as it is.
    #[inline]
    pub fn earliest_schedule_ge(&self, after: u64) -> Option<u64> {
        (self.cursor < self.len()).then(|| self.schedule_value(self.cursor).max(after))
    }

    /// Mark the entry at `idx` as announced.
    pub fn mark_sent(&mut self, idx: usize) {
        self.entries[idx].sent = true;
        if idx == self.cursor {
            self.skip_sent();
        }
    }

    /// Replace the whole list from a checkpoint snapshot. Entries are
    /// snapshotted in list order, so no re-sort is needed; a malformed
    /// snapshot (out of order) is rejected rather than silently
    /// corrupting the schedule. The columns and the cursor are derived
    /// state: they are rebuilt here, never serialized.
    pub fn restore_entries(&mut self, entries: Vec<Entry>) -> Option<()> {
        self.entries = entries;
        let sorted = self.is_sorted();
        if !sorted {
            self.entries.clear();
        }
        let rows = &self.entries;
        self.ceil = rows
            .iter()
            .map(|e| self.gamma.ceil_kappa(e.d, e.l))
            .collect();
        self.srcs = rows.iter().map(|e| e.src).collect();
        self.cursor = 0;
        self.skip_sent();
        sorted.then_some(())
    }

    /// Demote the previous SP entry for `src` after a new SP entry landed
    /// at `new_idx`.
    ///
    /// `flag-d*` is a *derived* property ("set if Z has the smallest
    /// `(d, κ)` among all entries for x"), so the old SP entry keeps its
    /// flag — and with it, protection from INSERT's eviction — until the
    /// new SP entry is in place. Demoting before the insert would let the
    /// insert evict the old SP entry immediately, losing paths the h-hop
    /// semantics still needs (the Fig. 1 shortcut entry is exactly such a
    /// case).
    pub fn demote_old_sp(&mut self, src: u32, new_idx: usize) {
        for (i, &s) in self.srcs.iter().enumerate() {
            if s == src && i != new_idx {
                self.entries[i].flag_sp = false;
            }
        }
    }

    /// Entry at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Entry {
        &self.entries[idx]
    }

    /// Verify the sorted-order invariant (test helper).
    pub fn is_sorted(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| self.cmp_entries(&w[0], &w[1]) != Ordering::Greater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(d: u64, l: u64, src: u32, flag: bool) -> Entry {
        Entry {
            d,
            l,
            src,
            parent: src,
            flag_sp: flag,
            sent: false,
        }
    }

    fn list_gamma_one() -> NodeList {
        // k·h = Δ ⇒ γ = 1 ⇒ κ = d + l
        NodeList::new(Gamma::new(2, 8, 16))
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut l = list_gamma_one();
        l.insert(e(5, 0, 1, true)); // κ=5
        l.insert(e(1, 1, 2, true)); // κ=2
        l.insert(e(3, 0, 3, true)); // κ=3
        assert!(l.is_sorted());
        let kappas: Vec<u64> = (0..3).map(|i| l.get(i).d + l.get(i).l).collect();
        assert_eq!(kappas, vec![2, 3, 5]);
    }

    #[test]
    fn tie_break_by_d_then_src() {
        let mut l = list_gamma_one();
        l.insert(e(4, 0, 7, true)); // κ=4, d=4
        l.insert(e(2, 2, 9, true)); // κ=4, d=2
        l.insert(e(2, 2, 3, true)); // κ=4, d=2, smaller src
        assert_eq!(l.get(0).src, 3);
        assert_eq!(l.get(1).src, 9);
        assert_eq!(l.get(2).src, 7);
    }

    #[test]
    fn insert_evicts_closest_non_sp_above_same_source() {
        let mut l = list_gamma_one();
        l.insert(e(10, 0, 1, false)); // κ=10 non-SP
                                      // inserting below it evicts it (Observation II.3 is unconditional)
        l.insert(e(6, 0, 1, false)); // κ=6 non-SP
        assert_eq!(l.len(), 1);
        assert_eq!(l.get(0).d, 6);
        l.insert(e(8, 0, 2, true)); // other source, κ=8, untouched
        l.insert(e(12, 0, 1, false)); // above: nothing above it to evict
        assert_eq!(l.len(), 3);
        // new SP entry for source 1 below everything: evicts κ=6 (closest
        // non-SP above), leaves κ=12 and the other source alone
        l.insert(e(2, 0, 1, true));
        assert_eq!(l.len(), 3);
        let remaining: Vec<(u64, u32)> = l.entries().iter().map(|x| (x.d, x.src)).collect();
        assert_eq!(remaining, vec![(2, 1), (8, 2), (12, 1)]);
    }

    #[test]
    fn eviction_skips_sp_entries() {
        let mut l = list_gamma_one();
        l.insert(e(6, 0, 1, true)); // SP above
        l.insert(e(2, 0, 1, false));
        // SP at κ=6 must not be evicted
        assert_eq!(l.len(), 2);
        assert!(l.get(1).flag_sp);
    }

    #[test]
    fn nu_and_counts() {
        let mut l = list_gamma_one();
        l.insert(e(1, 0, 1, true));
        l.insert(e(3, 0, 2, true));
        l.insert(e(5, 0, 1, false));
        l.insert(e(7, 0, 1, false));
        assert_eq!(l.nu(0), 1);
        assert_eq!(l.nu(2), 2);
        assert_eq!(l.nu(3), 3);
        assert_eq!(l.count_for_source(1), 3);
        // Step 13 counts source 1's rows below the insertion point.
        let admits = |d, nu| {
            let cand = e(d, 0, 1, false);
            l.clone()
                .admit(cand, nu, AdmissionRule::ListOrder)
                .is_some()
        };
        for (d, below) in [(6, 2), (1, 1), (0, 0)] {
            assert!(!admits(d, below) && admits(d, below + 1), "d = {d}");
        }
    }

    #[test]
    fn schedule_values_strictly_increase() {
        let mut l = list_gamma_one();
        for (d, s) in [(4u64, 1u32), (4, 2), (4, 3), (9, 4), (2, 5)] {
            l.insert(e(d, 0, s, true));
        }
        let vals: Vec<u64> = (0..l.len()).map(|i| l.schedule_value(i)).collect();
        assert!(vals.windows(2).all(|w| w[0] < w[1]), "{vals:?}");
    }

    #[test]
    fn find_send_equality_and_rearm() {
        let mut l = list_gamma_one();
        l.insert(e(4, 0, 1, true)); // κ=4, pos=1 ⇒ value 5
        l.insert(e(9, 0, 2, true)); // κ=9, pos=2 ⇒ value 11
        assert_eq!(l.find_send(4), None, "nothing due before value 5");
        assert_eq!(l.find_send(5), Some(0));
        // unsent entries past their round are re-armed (lowest first)
        assert_eq!(l.find_send(6), Some(0));
        l.mark_sent(0);
        assert_eq!(l.find_send(6), None);
        assert_eq!(l.find_send(11), Some(1));
        l.mark_sent(1);
        assert_eq!(l.find_send(12), None);
    }

    #[test]
    fn earliest_schedule() {
        let mut l = list_gamma_one();
        assert_eq!(l.earliest_schedule_ge(1), None);
        l.insert(e(4, 0, 1, true)); // value 5
        l.insert(e(9, 0, 2, true)); // value 11
        assert_eq!(l.earliest_schedule_ge(1), Some(5));
        assert_eq!(l.earliest_schedule_ge(5), Some(5));
        // entry 0 is past due at round 6: it re-arms immediately
        assert_eq!(l.earliest_schedule_ge(6), Some(6));
        l.mark_sent(0);
        assert_eq!(l.earliest_schedule_ge(6), Some(11));
        // entry 1 past due at 12: immediate as well
        assert_eq!(l.earliest_schedule_ge(12), Some(12));
        l.mark_sent(1);
        assert_eq!(l.earliest_schedule_ge(12), None);
    }

    #[test]
    fn demote_old_sp_protects_during_insert() {
        let mut l = list_gamma_one();
        l.insert(e(6, 0, 1, true)); // current SP, κ=6
                                    // better path arrives: insert while old SP is still flagged —
                                    // the eviction step must NOT remove it
        let idx = l.insert(e(2, 0, 1, true));
        assert_eq!(l.len(), 2, "old SP survives the insert");
        l.demote_old_sp(1, idx);
        let flags: Vec<bool> = l.entries().iter().map(|x| x.flag_sp).collect();
        assert_eq!(flags, vec![true, false]);
        // a later non-SP insert below may now evict the demoted entry
        l.insert(e(3, 0, 1, false));
        assert_eq!(l.len(), 2);
        let ds: Vec<u64> = l.entries().iter().map(|x| x.d).collect();
        assert_eq!(ds, vec![2, 3]);
    }

    #[test]
    fn equal_entries_insert_stable() {
        let mut l = list_gamma_one();
        let a = e(4, 0, 1, false);
        l.insert(a);
        l.insert(a); // duplicate: lands after, then evicts the twin above? no —
                     // eviction looks *above* the new entry: the first copy is at
                     // or below, the new one is after equals, so the eviction
                     // scan starts above it and finds nothing.
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn cursor_follows_an_insert_below_it_and_steps_over_sent_rows() {
        let mut l = list_gamma_one();
        l.insert(e(4, 0, 1, true)); // value 5
        l.insert(e(9, 0, 2, true)); // value 11
        l.mark_sent(0);
        assert_eq!(l.find_send(11), Some(1));
        // a late arrival below both: the lowest unsent row is now row 0
        l.insert(e(1, 0, 3, true)); // value 2; the others move to 6 and 12
        assert_eq!(l.find_send(1), None);
        assert_eq!(l.earliest_schedule_ge(0), Some(2));
        assert_eq!(l.find_send(11), Some(0));
        l.mark_sent(0);
        // row 1 was sent before the insert: the cursor steps over it
        assert_eq!(l.find_send(11), None);
        assert_eq!(l.earliest_schedule_ge(3), Some(12));
        assert_eq!(l.find_send(12), Some(2));
    }

    #[test]
    fn cursor_survives_the_eviction_of_its_own_row() {
        let mut l = list_gamma_one();
        l.insert(e(2, 0, 1, true));
        l.insert(e(5, 0, 1, false)); // the lowest unsent row after the marks
        l.insert(e(7, 0, 2, true));
        l.insert(e(9, 0, 3, true));
        l.mark_sent(0);
        l.mark_sent(2); // out of turn: a sent row above the cursor
        assert_eq!(l.earliest_schedule_ge(0), Some(7));
        // an already-announced row (a restored one, say) lands between
        // rows 0 and 1 and evicts row 1, the cursor's; the row that
        // slides into its place is sent, so the cursor moves on
        let mut z = e(3, 0, 1, false);
        z.sent = true;
        assert_eq!(l.insert(z), 1);
        let ds: Vec<u64> = l.entries().iter().map(|x| x.d).collect();
        assert_eq!(ds, vec![2, 3, 7, 9]);
        assert_eq!(l.earliest_schedule_ge(0), Some(13));
        assert_eq!(l.find_send(13), Some(3));
    }

    #[test]
    fn restore_rebuilds_columns_and_cursor_and_rejects_disorder() {
        let mut a = list_gamma_one();
        for (d, s) in [(4u64, 1u32), (6, 2), (6, 1), (9, 3)] {
            a.insert(e(d, 0, s, s != 1 || d == 4));
        }
        a.mark_sent(0);
        a.mark_sent(1);
        let mut b = list_gamma_one();
        b.restore_entries(a.entries().to_vec()).expect("in order");
        assert_eq!(b.entries(), a.entries());
        for r in 0..16 {
            assert_eq!(b.find_send(r), a.find_send(r));
            assert_eq!(b.earliest_schedule_ge(r), a.earliest_schedule_ge(r));
        }
        assert_eq!(b.nu(1), 2);
        assert_eq!(b.count_for_source(1), 2);
        let mut rows = a.entries().to_vec();
        rows.swap(0, 3);
        assert_eq!(b.restore_entries(rows), None);
        assert!(b.is_empty());
        assert_eq!(b.find_send(100), None);
    }

    /// `list_v` as it was before the columns and the cursor: one vector
    /// of rows, every per-source question a scan of all of it, every
    /// schedule value recomputed by integer square root, `find_send` a
    /// walk over the unsent rows. Slow and obviously right; the reference
    /// the differential test holds [`NodeList`] to.
    struct NaiveList {
        gamma: Gamma,
        entries: Vec<Entry>,
    }

    impl NaiveList {
        fn cmp_entries(&self, a: &Entry, b: &Entry) -> Ordering {
            self.gamma
                .cmp_kappa(a.d, a.l, b.d, b.l)
                .then(a.d.cmp(&b.d))
                .then(a.src.cmp(&b.src))
        }

        fn schedule_value(&self, idx: usize) -> u64 {
            let e = &self.entries[idx];
            self.gamma.ceil_kappa(e.d, e.l) + (idx as u64 + 1)
        }

        fn insert(&mut self, e: Entry) -> usize {
            let idx = self
                .entries
                .partition_point(|x| self.cmp_entries(x, &e) != Ordering::Greater);
            self.entries.insert(idx, e);
            if let Some(j) = self.entries[idx + 1..]
                .iter()
                .position(|x| x.src == e.src && !x.flag_sp)
            {
                self.entries.remove(idx + 1 + j);
            }
            idx
        }

        /// Step 13 as `PipelinedNode::receive` spelled it: count, then
        /// search again to insert.
        fn admit(&mut self, cand: Entry, nu: u32, rule: AdmissionRule) -> Option<usize> {
            let below = self
                .entries
                .iter()
                .filter(|x| x.src == cand.src)
                .filter(|x| match rule {
                    AdmissionRule::ListOrder => self.cmp_entries(x, &cand) != Ordering::Greater,
                    AdmissionRule::StrictKappa => {
                        self.gamma.cmp_kappa(x.d, x.l, cand.d, cand.l) == Ordering::Less
                    }
                })
                .count() as u32;
            (below < nu).then(|| self.insert(cand))
        }

        fn nu(&self, idx: usize) -> u32 {
            let src = self.entries[idx].src;
            self.entries[..=idx].iter().filter(|x| x.src == src).count() as u32
        }

        fn count_for_source(&self, src: u32) -> usize {
            self.entries.iter().filter(|x| x.src == src).count()
        }

        fn find_send(&self, r: u64) -> Option<usize> {
            (0..self.entries.len()).find(|&i| !self.entries[i].sent && self.schedule_value(i) <= r)
        }

        fn earliest_schedule_ge(&self, after: u64) -> Option<u64> {
            (0..self.entries.len())
                .filter(|&i| !self.entries[i].sent)
                .map(|i| self.schedule_value(i).max(after))
                .min()
        }

        fn demote_old_sp(&mut self, src: u32, new_idx: usize) {
            for (i, e) in self.entries.iter_mut().enumerate() {
                if i != new_idx && e.src == src {
                    e.flag_sp = false;
                }
            }
        }
    }

    /// Everything a caller can ask of the list, asked of both.
    fn assert_same(fast: &NodeList, naive: &NaiveList, step: usize) {
        assert_eq!(fast.entries(), naive.entries.as_slice(), "step {step}");
        assert!(fast.is_sorted(), "step {step}");
        let len = fast.len();
        for i in 0..len {
            assert_eq!(fast.nu(i), naive.nu(i), "step {step}: nu({i})");
            assert_eq!(
                fast.schedule_value(i),
                naive.schedule_value(i),
                "step {step}: schedule_value({i})"
            );
        }
        for src in 0..5 {
            assert_eq!(
                fast.count_for_source(src),
                naive.count_for_source(src),
                "step {step}"
            );
        }
        let horizon = (0..len).map(|i| naive.schedule_value(i)).max().unwrap_or(0) + 3;
        for r in 0..horizon {
            assert_eq!(fast.find_send(r), naive.find_send(r), "step {step}: r={r}");
            let first = fast.earliest_schedule_ge(r);
            assert_eq!(first, naive.earliest_schedule_ge(r), "step {step}: r={r}");
            // `Protocol::earliest_send`: sound (no send before the
            // answer, none at all after `None`) and stable (the same
            // answer from any later starting point up to it).
            match first {
                None => assert!((r..horizon).all(|q| fast.find_send(q).is_none())),
                Some(at) => {
                    assert!(at >= r);
                    assert!((r..at).all(|q| fast.find_send(q).is_none()), "step {step}");
                    assert!(fast.find_send(at).is_some(), "step {step}");
                    for q in r..=at {
                        assert_eq!(fast.earliest_schedule_ge(q), Some(at), "step {step}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn columns_and_cursor_agree_with_the_scan_everything_list(
            k in 1u64..5,
            h in 1u64..9,
            delta in 1u64..40,
            ops in proptest::collection::vec(
                (0u8..10, 0u64..10, 0u64..8, 0u32..4, 0u32..4, 0u64..1000),
                1..90,
            ),
        ) {
            let gamma = Gamma::new(k, h, delta);
            let mut fast = NodeList::new(gamma);
            let mut naive = NaiveList { gamma, entries: Vec::new() };
            let mut round = 0u64;
            for (step, &(op, d, l, src, nu, pick)) in ops.iter().enumerate() {
                // small ranges: duplicate (d, l, src) keys are the rule
                let mut row = Entry { d, l, src, parent: pick as u32, flag_sp: false, sent: false };
                match op {
                    // Steps 9-11: SP insert, then demote the old SP rows
                    0 | 1 => {
                        row.flag_sp = true;
                        let at = fast.insert(row);
                        prop_assert_eq!(at, naive.insert(row));
                        fast.demote_old_sp(src, at);
                        naive.demote_old_sp(src, at);
                    }
                    // Step 13 under either counting rule
                    2..=4 => {
                        let rule = if op == 4 {
                            AdmissionRule::StrictKappa
                        } else {
                            AdmissionRule::ListOrder
                        };
                        prop_assert_eq!(fast.admit(row, nu, rule), naive.admit(row, nu, rule));
                    }
                    // the send phase of the next few rounds
                    5 | 6 => {
                        round += pick % 4;
                        let due = fast.find_send(round);
                        prop_assert_eq!(due, naive.find_send(round));
                        if let Some(i) = due {
                            fast.mark_sent(i);
                            naive.entries[i].sent = true;
                        }
                    }
                    // a row announced out of turn, anywhere on the list
                    7 if !naive.entries.is_empty() => {
                        let i = pick as usize % naive.entries.len();
                        fast.mark_sent(i);
                        naive.entries[i].sent = true;
                    }
                    // a row that arrives already announced: lands at or
                    // below the cursor and may evict the cursor's row
                    8 => {
                        row.sent = true;
                        prop_assert_eq!(fast.insert(row), naive.insert(row));
                    }
                    // crash recovery: the rows come back, some of them
                    // marked sent in no particular pattern
                    9 => {
                        let mut rows = naive.entries.clone();
                        for (i, r) in rows.iter_mut().enumerate() {
                            r.sent ^= (pick >> (i % 10)) & 1 == 1;
                        }
                        fast = NodeList::new(gamma);
                        prop_assert_eq!(fast.restore_entries(rows.clone()), Some(()));
                        naive.entries = rows;
                    }
                    _ => {}
                }
                assert_same(&fast, &naive, step);
            }
        }
    }
}
