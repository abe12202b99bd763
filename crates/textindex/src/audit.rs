//! Structural invariant auditing — the `seda-audit` layer for the full-text
//! indexes.
//!
//! # Invariant catalog (substrate `textindex`)
//!
//! | class | invariant |
//! |---|---|
//! | `termdict-bijection` | the term dictionary round-trips: `get(resolve(id)) == id` both ways, one id per term, one idf per term, and no term without a posting |
//! | `csr-offsets` | `posting_offsets` has length `dict.len() + 1`, starts at 0, is monotone and ends at the arena length |
//! | `postings-sorted` | every per-term posting slice is sorted by (score desc, node asc), scores finite, nodes distinct |
//! | `node-side-table` | slots are dense and strictly ascending by node id; the side tables align |
//! | `token-arena` | `token_offsets` has length slots + 1, starts at 0, is monotone and ends at the arena length; every id is in the dictionary; no slot is empty; every posting's node holds the term, with score bits equal to `tf · idf / √len`, and the postings' term frequencies add up to the arena's length (no token without its posting) |
//! | `posting-paths` | the per-posting path array has the arena's length and holds the side-table path of each posting's node |
//! | `path-runs` | run offsets are well-formed; every indexed node appears exactly once, in its own path's run; runs are sorted by (score desc, node asc); score bits equal `1/√len` |
//! | `context-paths` | every path referenced by the context index is a member of its own `all_paths` universe |
//!
//! The violation type lives in [`seda_xmlstore::audit`] so every substrate
//! reports through one shape; see there for the catalog conventions.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};

use crate::context_index::ContextIndex;
use crate::dict::TermId;
use crate::node_index::{match_all_score, ranked, term_score, NodeIndex, SlotLookup};

const SUBSTRATE: &str = "textindex";

impl NodeIndex {
    /// Verifies every table of the index: dictionary bijection, CSR offset
    /// well-formedness, per-term posting order, the node side table, the
    /// token arena, the per-posting path array, the path-partitioned
    /// match-all runs and that postings and tokens tell one story.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        self.verify_dict(&mut violations);
        let before_postings = violations.len();
        self.verify_posting_arena(&mut violations);
        let postings_well_formed = violations.len() == before_postings;
        let before_slots = violations.len();
        self.verify_side_table(&mut violations);
        self.verify_token_arena(&mut violations);
        // The remaining walks look every node up in the side table and read
        // its tokens; over broken ones they would only echo the violations.
        if violations.len() == before_slots {
            let slots = SlotLookup::new(&self.slot_nodes);
            self.verify_postings_against_nodes(&slots, postings_well_formed, &mut violations);
            self.verify_path_runs(&slots, &mut violations);
        }
        finish(violations)
    }

    fn verify_dict(&self, violations: &mut Vec<InvariantViolation>) {
        if self.dict.ids.len() != self.dict.terms.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "termdict-bijection",
                format!(
                    "{} reverse entries for {} terms",
                    self.dict.ids.len(),
                    self.dict.terms.len()
                ),
            ));
        }
        for (id, term) in self.dict.terms() {
            if self.dict.get(term) != Some(id) {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "termdict-bijection",
                    format!("term {term:?} does not round-trip to id {}", id.0),
                ));
            }
        }
        if self.idf_by_term.len() != self.dict.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "termdict-bijection",
                format!("{} idf entries for {} terms", self.idf_by_term.len(), self.dict.len()),
            ));
        }
    }

    fn verify_posting_arena(&self, violations: &mut Vec<InvariantViolation>) {
        let offsets = &self.posting_offsets;
        if offsets.is_empty() && self.dict.is_empty() && self.sorted_postings.is_empty() {
            // A default-constructed (never built) index has no frozen arena
            // at all, which is well-formed vacuously.
            return;
        }
        if offsets.len() != self.dict.len() + 1 {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!("{} offsets for {} terms", offsets.len(), self.dict.len()),
            ));
            return;
        }
        if offsets.first() != Some(&0)
            || offsets.last().map(|&o| o as usize) != Some(self.sorted_postings.len())
        {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "csr-offsets",
                format!(
                    "offsets span {:?}..{:?} over an arena of {}",
                    offsets.first(),
                    offsets.last(),
                    self.sorted_postings.len()
                ),
            ));
        }
        for (i, pair) in offsets.windows(2).enumerate() {
            if pair[0] > pair[1] {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "csr-offsets",
                    format!("offset {i} decreases: {} > {}", pair[0], pair[1]),
                ));
            }
        }
        for id in 0..self.dict.len() as u32 {
            let (start, end) =
                (self.posting_offsets[id as usize], self.posting_offsets[id as usize + 1]);
            if start > end || end as usize > self.sorted_postings.len() {
                continue; // already reported as a csr-offsets violation
            }
            let slice = &self.sorted_postings[start as usize..end as usize];
            if slice.is_empty() {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "termdict-bijection",
                    format!(
                        "term {:?} is interned but has no posting",
                        self.dict.resolve(TermId(id))
                    ),
                ));
            }
            for (i, pair) in slice.windows(2).enumerate() {
                let ordered = pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].node < pair[1].node);
                if !ordered {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "postings-sorted",
                        format!(
                            "term {:?} postings {i},{}: ({:?}, {}) then ({:?}, {})",
                            self.dict.resolve(TermId(id)),
                            i + 1,
                            pair[0].node,
                            pair[0].score,
                            pair[1].node,
                            pair[1].score
                        ),
                    ));
                }
            }
            for scored in slice {
                if !scored.score.is_finite() {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "postings-sorted",
                        format!(
                            "term {:?} posting for {:?} has non-finite score",
                            self.dict.resolve(TermId(id)),
                            scored.node
                        ),
                    ));
                }
            }
        }
    }

    fn verify_side_table(&self, violations: &mut Vec<InvariantViolation>) {
        let n = self.slot_nodes.len();
        if self.slot_paths.len() != n {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "node-side-table",
                format!("side tables disagree: {n} nodes, {} paths", self.slot_paths.len()),
            ));
        }
        for (i, pair) in self.slot_nodes.windows(2).enumerate() {
            if pair[0] >= pair[1] {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "node-side-table",
                    format!(
                        "slot {i} node {:?} not before slot {} node {:?}",
                        pair[0],
                        i + 1,
                        pair[1]
                    ),
                ));
            }
        }
    }

    /// The arena's shape: well-formed offsets, known ids, no empty slot.
    fn verify_token_arena(&self, violations: &mut Vec<InvariantViolation>) {
        let offsets = &self.token_offsets;
        if offsets.is_empty() && self.slot_tokens.is_empty() && self.slot_nodes.is_empty() {
            return; // default-constructed, never built
        }
        let well_formed = offsets.len() == self.slot_nodes.len() + 1
            && offsets.first() == Some(&0)
            && offsets.windows(2).all(|pair| pair[0] <= pair[1])
            && offsets.last().map(|&end| end as usize) == Some(self.slot_tokens.len());
        if !well_formed {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "token-arena",
                format!(
                    "{} token offsets spanning {:?}..{:?} over {} tokens for {} indexed nodes",
                    offsets.len(),
                    offsets.first(),
                    offsets.last(),
                    self.slot_tokens.len(),
                    self.slot_nodes.len()
                ),
            ));
            return;
        }
        for (slot, pair) in offsets.windows(2).enumerate() {
            if pair[0] == pair[1] {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "token-arena",
                    format!("indexed node {:?} (slot {slot}) has no token", self.slot_nodes[slot]),
                ));
            }
        }
        for (i, id) in self.slot_tokens.iter().enumerate() {
            if id.index() >= self.dict.len() {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "token-arena",
                    format!("token {i} is id {} of a {}-term dictionary", id.0, self.dict.len()),
                ));
            }
        }
    }

    /// One walk over the posting arena, one slot lookup per posting, for the
    /// two classes that hold a posting against its node.
    ///
    /// `posting-paths`: the parallel array carries the node's side-table path.
    ///
    /// `token-arena` (only over well-formed posting offsets, which say which
    /// term a posting belongs to): the node holds the term and scores
    /// `tf · idf / √len` to the bit, and the term frequencies add up to the
    /// arena's length — with `postings-sorted` (no node twice in a slice) every
    /// posting covers its own tokens, so a token without its posting leaves
    /// the sum short.
    fn verify_postings_against_nodes(
        &self,
        slots: &SlotLookup,
        offsets_well_formed: bool,
        violations: &mut Vec<InvariantViolation>,
    ) {
        if self.posting_paths.len() != self.sorted_postings.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "posting-paths",
                format!(
                    "{} paths for {} postings",
                    self.posting_paths.len(),
                    self.sorted_postings.len()
                ),
            ));
            return;
        }
        let (mut term, mut covered) = (0, 0);
        for (i, (scored, path)) in self.sorted_postings.iter().zip(&self.posting_paths).enumerate()
        {
            let slot = slots.slot(scored.node);
            let expected = slot.map(|slot| self.slot_paths[slot]);
            if expected != Some(*path) {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "posting-paths",
                    format!(
                        "posting {i} of {:?} carries path {} but the side table says {expected:?}",
                        scored.node, path.0
                    ),
                ));
            }
            let (Some(slot), true) = (slot, offsets_well_formed) else { continue };
            while self.posting_offsets[term + 1] as usize <= i {
                term += 1;
            }
            let tokens = self.tokens_of(slot);
            let tf = tokens.iter().filter(|token| token.index() == term).count();
            covered += tf;
            let expected = term_score(tf, self.idf_by_term[term], tokens.len());
            if tf == 0 || scored.score.to_bits() != expected.to_bits() {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "token-arena",
                    format!(
                        "posting of {:?} for {:?} scores {} but the node holds the term {tf} \
                         time(s) among {} tokens (expected {expected})",
                        self.dict.resolve(TermId(term as u32)),
                        scored.node,
                        scored.score,
                        tokens.len()
                    ),
                ));
            }
        }
        if offsets_well_formed && covered != self.slot_tokens.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "token-arena",
                format!(
                    "the postings' term frequencies cover {covered} of the arena's {} tokens",
                    self.slot_tokens.len()
                ),
            ));
        }
    }

    fn verify_path_runs(&self, slots: &SlotLookup, violations: &mut Vec<InvariantViolation>) {
        let offsets = &self.path_run_offsets;
        if offsets.is_empty() && self.path_runs.is_empty() && self.slot_nodes.is_empty() {
            return; // default-constructed, never built
        }
        let well_formed = offsets.first() == Some(&0)
            && offsets.windows(2).all(|pair| pair[0] <= pair[1])
            && offsets.last().map(|&end| end as usize) == Some(self.path_runs.len());
        if !well_formed || self.path_runs.len() != self.slot_nodes.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "path-runs",
                format!(
                    "{} run offsets spanning {:?}..{:?} over {} entries for {} indexed nodes",
                    offsets.len(),
                    offsets.first(),
                    offsets.last(),
                    self.path_runs.len(),
                    self.slot_nodes.len()
                ),
            ));
            return;
        }
        // As many entries as slots and no slot twice: every node exactly once.
        let mut seen = vec![false; self.slot_nodes.len()];
        for (path, bounds) in offsets.windows(2).enumerate() {
            let run = &self.path_runs[bounds[0] as usize..bounds[1] as usize];
            for pair in run.windows(2) {
                if !ranked(&pair[0], &pair[1]).is_lt() {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "path-runs",
                        format!(
                            "run of path {path}: ({:?}, {}) then ({:?}, {})",
                            pair[0].node, pair[0].score, pair[1].node, pair[1].score
                        ),
                    ));
                }
            }
            for scored in run {
                let problem = match slots.slot(scored.node) {
                    None => Some("is not an indexed node".to_string()),
                    Some(slot) => {
                        let expected = match_all_score(self.tokens_of(slot).len());
                        if std::mem::replace(&mut seen[slot], true) {
                            Some("appears twice".to_string())
                        } else if self.slot_paths[slot].index() != path {
                            Some(format!("belongs to path {}", self.slot_paths[slot].0))
                        } else if scored.score.to_bits() != expected.to_bits() {
                            Some(format!("scores {} instead of {expected}", scored.score))
                        } else {
                            None
                        }
                    }
                };
                if let Some(problem) = problem {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "path-runs",
                        format!("run of path {path}: {:?} {problem}", scored.node),
                    ));
                }
            }
        }
    }

    /// Test-only corruption hook: swaps two entries of the frozen posting
    /// arena (breaks `postings-sorted` without touching offsets).
    #[doc(hidden)]
    pub fn corrupt_swap_sorted_postings(&mut self, a: usize, b: usize) {
        self.sorted_postings.swap(a, b);
    }

    /// Test-only corruption hook: overwrites one CSR offset (breaks
    /// `csr-offsets` monotonicity / bounds).
    #[doc(hidden)]
    pub fn corrupt_posting_offset(&mut self, index: usize, value: u32) {
        self.posting_offsets[index] = value;
    }

    /// Test-only corruption hook: rewrites one dictionary term without
    /// updating the reverse map (breaks `termdict-bijection`).
    #[doc(hidden)]
    pub fn corrupt_dict_term(&mut self, id: TermId, term: &str) {
        self.dict.terms[id.index()] = term.to_string();
    }

    /// Test-only corruption hook: swaps two node side-table slots (breaks
    /// `node-side-table` ordering and the inverse mapping).
    #[doc(hidden)]
    pub fn corrupt_swap_slot_nodes(&mut self, a: usize, b: usize) {
        self.slot_nodes.swap(a, b);
    }

    /// Test-only corruption hook: overwrites one entry of the per-posting
    /// path array (breaks `posting-paths`).
    #[doc(hidden)]
    pub fn corrupt_posting_path(&mut self, index: usize, path: seda_xmlstore::PathId) {
        self.posting_paths[index] = path;
    }

    /// Test-only corruption hook: swaps two entries of the path-partitioned
    /// match-all runs (breaks `path-runs`: order inside a run, or which run a
    /// node sits in).
    #[doc(hidden)]
    pub fn corrupt_swap_path_runs(&mut self, a: usize, b: usize) {
        self.path_runs.swap(a, b);
    }

    /// Test-only corruption hook: overwrites one entry of the token arena
    /// (breaks `token-arena`: a posting loses its token).
    #[doc(hidden)]
    pub fn corrupt_token(&mut self, index: usize, id: TermId) {
        self.slot_tokens[index] = id;
    }

    /// One term's `[start, end)` slice of the frozen posting arena (targeting
    /// input for the corruption suite's swap hook).
    #[doc(hidden)]
    pub fn posting_range(&self, id: TermId) -> (usize, usize) {
        let range = self.term_range(id);
        (range.start, range.end)
    }
}

impl ContextIndex {
    /// Verifies that every path the context index references belongs to its
    /// own path universe, and that duplicated posting counts exist exactly
    /// when the `PostingLists` storage design is active.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        let mut check_member = |path: &seda_xmlstore::PathId, role: &str| {
            if !self.all_paths.contains(path) {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "context-paths",
                    format!("{role} references path {} outside the universe", path.0),
                ));
            }
        };
        for path in &self.text_paths {
            check_member(path, "text-path set");
        }
        for (term, paths) in &self.keyword_paths {
            for path in paths {
                check_member(path, &format!("keyword {term:?}"));
            }
        }
        for path in self.path_occurrences.keys() {
            check_member(path, "occurrence counts");
        }
        for path in self.path_document_frequency.keys() {
            check_member(path, "document frequencies");
        }
        for (term, path) in self.posting_counts.keys() {
            check_member(path, &format!("posting count of {term:?}"));
        }
        if self.storage == crate::context_index::CountStorage::DocumentStore
            && !self.posting_counts.is_empty()
        {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "context-paths",
                format!(
                    "document-store design carries {} duplicated posting counts",
                    self.posting_counts.len()
                ),
            ));
        }
        finish(violations)
    }

    /// Test-only corruption hook: registers a text path outside the path
    /// universe (breaks `context-paths`).
    #[doc(hidden)]
    pub fn corrupt_insert_text_path(&mut self, path: seda_xmlstore::PathId) {
        self.text_paths.insert(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context_index::CountStorage;
    use seda_xmlstore::parse_collection;

    fn sample() -> (seda_xmlstore::Collection, NodeIndex) {
        let collection = parse_collection(vec![
            ("a.xml", "<country><name>United States</name><year>2006</year></country>"),
            ("b.xml", "<country><name>United Mexican States</name><year>2003</year></country>"),
        ])
        .unwrap();
        let index = NodeIndex::build(&collection);
        (collection, index)
    }

    #[test]
    fn fresh_indexes_pass() {
        let (collection, index) = sample();
        assert_eq!(index.verify(), Ok(()));
        let ctx = ContextIndex::build(&collection, CountStorage::DocumentStore);
        assert_eq!(ctx.verify(), Ok(()));
        assert_eq!(NodeIndex::default().verify(), Ok(()));
    }

    #[test]
    fn swapped_postings_fail_postings_sorted() {
        let (_, mut index) = sample();
        // "united" has two postings with distinct scores; swapping them breaks
        // the (score desc, node asc) order of exactly one term slice.
        let term = index.term_dict().get("united").unwrap();
        let start = index.posting_offsets[term.index()] as usize;
        index.corrupt_swap_sorted_postings(start, start + 1);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "postings-sorted"), "{violations:?}");
    }

    #[test]
    fn decreasing_offset_fails_csr_offsets() {
        let (_, mut index) = sample();
        index.corrupt_posting_offset(1, u32::MAX);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().any(|v| v.invariant == "csr-offsets"), "{violations:?}");
    }

    #[test]
    fn rewritten_term_fails_bijection() {
        let (_, mut index) = sample();
        index.corrupt_dict_term(TermId(0), "zzz-intruder");
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "termdict-bijection"), "{violations:?}");
    }

    #[test]
    fn swapped_slots_fail_side_table() {
        let (_, mut index) = sample();
        index.corrupt_swap_slot_nodes(0, 1);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "node-side-table"), "{violations:?}");
    }

    #[test]
    fn rewritten_token_fails_token_arena() {
        let (_, index) = sample();
        let united = index.term_dict().get("united").unwrap();
        let year = index.term_dict().get("2006").unwrap();
        // A posting without its token: the first "united" becomes "2006".
        // A wrong tf: "mexican" becomes a second "united" in its node.
        // An id outside the dictionary.
        let first = index.slot_tokens.iter().position(|&id| id == united).unwrap();
        let mexican = index.term_dict().get("mexican").unwrap();
        let other = index.slot_tokens.iter().position(|&id| id == mexican).unwrap();
        for (at, id) in [(first, year), (other, united), (0, TermId(u32::MAX))] {
            let mut corrupted = index.clone();
            corrupted.corrupt_token(at, id);
            let violations = corrupted.verify().unwrap_err();
            assert!(violations.iter().all(|v| v.invariant == "token-arena"), "{violations:?}");
        }
        // A node that lost its tokens to its neighbour.
        let mut corrupted = index.clone();
        corrupted.token_offsets[1] = corrupted.token_offsets[0];
        let violations = corrupted.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "token-arena"), "{violations:?}");
    }

    #[test]
    fn rewritten_posting_path_fails_posting_paths() {
        let (collection, mut index) = sample();
        // Every posting of "united" sits on /country/name; claim one for /country/year.
        let term = index.term_dict().get("united").unwrap();
        let year = collection.paths().get_str(collection.symbols(), "/country/year").unwrap();
        index.corrupt_posting_path(index.posting_range(term).0, year);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "posting-paths"), "{violations:?}");
    }

    #[test]
    fn swapped_run_entries_fail_path_runs() {
        let (_, index) = sample();
        // Inside one run: "United States" (2 tokens) ranks above "United Mexican
        // States" (3 tokens) on /country/name, so the swap breaks the order.
        let name_run = index
            .path_run_offsets
            .windows(2)
            .map(|b| b[0] as usize..b[1] as usize)
            .find(|run| run.len() == 2 && index.path_runs[run.start].score < 1.0)
            .expect("the /country/name run");
        // Across runs: the first and last entries belong to different paths.
        for (a, b) in [(name_run.start, name_run.start + 1), (0, index.path_runs.len() - 1)] {
            let mut corrupted = index.clone();
            corrupted.corrupt_swap_path_runs(a, b);
            let violations = corrupted.verify().unwrap_err();
            assert!(violations.iter().all(|v| v.invariant == "path-runs"), "{violations:?}");
        }
    }

    #[test]
    fn foreign_text_path_fails_context_paths() {
        let (collection, _) = sample();
        let mut ctx = ContextIndex::build(&collection, CountStorage::DocumentStore);
        ctx.corrupt_insert_text_path(seda_xmlstore::PathId(9999));
        let violations = ctx.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "context-paths"), "{violations:?}");
    }
}
