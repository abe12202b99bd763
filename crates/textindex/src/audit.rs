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
//! | `term-paths` | `term_path_offsets` has length `dict.len() + 1`, starts at 0, is monotone and ends at the table's length; each term's run is strictly ascending and equals the distinct side-table paths of its postings' nodes |
//! | `context-paths` | the context index's label table has one well-formed CSR offset per label token plus one; each label token's run is non-empty, strictly ascending and inside the path universe (the count arrays' length); the two count arrays align, and a path occurs in no more documents than nodes, and in some document exactly when it occurs at all |
//!
//! The violation type lives in [`seda_xmlstore::audit`] so every substrate
//! reports through one shape; see there for the catalog conventions.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};
use seda_xmlstore::PathId;

use crate::context_index::ContextIndex;
use crate::dict::{csr_row, TermId};
use crate::node_index::{match_all_score, ranked, term_score, NodeIndex, SlotLookup};

const SUBSTRATE: &str = "textindex";

/// The shape every CSR table of the indexes keeps: `rows + 1` offsets (any
/// number for `None`) that start at 0, never decrease and end at the
/// table's `len`.  A broken shape is a violation of `class`; returns whether
/// the table's rows can be read.
fn csr_shape(
    class: &'static str,
    offsets: &[u32],
    rows: Option<usize>,
    len: usize,
    violations: &mut Vec<InvariantViolation>,
) -> bool {
    let well_formed = rows.is_none_or(|rows| offsets.len() == rows + 1)
        && offsets.first() == Some(&0)
        && offsets.windows(2).all(|pair| pair[0] <= pair[1])
        && offsets.last().map(|&end| end as usize) == Some(len);
    if !well_formed {
        let (n, first, last) = (offsets.len(), offsets.first(), offsets.last());
        let detail =
            format!("{n} offsets ({first:?}..{last:?}) for {rows:?} rows of {len} entries");
        violations.push(InvariantViolation::new(SUBSTRATE, class, detail));
    }
    well_formed
}

impl NodeIndex {
    /// Verifies every table of the index: dictionary bijection, CSR offset
    /// well-formedness, per-term posting order, the node side table, the
    /// token arena, the per-posting path array, the path-partitioned
    /// match-all runs, the term → paths table and that postings and tokens
    /// tell one story.
    pub fn verify(&self) -> AuditResult {
        if *self == NodeIndex::default() {
            return Ok(()); // never built: no table, nothing to break
        }
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
        // The term → paths table is read off the posting paths, which
        // `posting-paths` holds to the side table: over broken ones it would
        // only echo their violations.
        if postings_well_formed && violations.iter().all(|v| v.invariant != "posting-paths") {
            self.verify_term_paths(&mut violations);
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
        let (offsets, terms) = (&self.posting_offsets, Some(self.dict.len()));
        if !csr_shape("csr-offsets", offsets, terms, self.sorted_postings.len(), violations) {
            return;
        }
        for id in 0..self.dict.len() as u32 {
            let slice = csr_row(offsets, &self.sorted_postings, id as usize);
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

    /// `term-paths`: the table is a CSR over the dictionary, and each term's
    /// run is the distinct paths of its postings, ascending.
    fn verify_term_paths(&self, violations: &mut Vec<InvariantViolation>) {
        let (offsets, terms) = (&self.term_path_offsets, self.dict.len());
        if !csr_shape("term-paths", offsets, Some(terms), self.term_paths.len(), violations) {
            return;
        }
        let mut postings_on: Vec<PathId> = Vec::new();
        for term in 0..terms {
            let id = TermId(term as u32);
            postings_on.clear();
            postings_on.extend_from_slice(&self.posting_paths[self.term_range(id)]);
            postings_on.sort_unstable();
            postings_on.dedup();
            let run = csr_row(offsets, &self.term_paths, term);
            if run != postings_on.as_slice() {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "term-paths",
                    format!(
                        "term {:?} lists paths {run:?} but its postings lie on {postings_on:?}",
                        self.dict.resolve(id)
                    ),
                ));
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
        let (offsets, slots) = (&self.token_offsets, Some(self.slot_nodes.len()));
        if !csr_shape("token-arena", offsets, slots, self.slot_tokens.len(), violations) {
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
        if !csr_shape("path-runs", offsets, None, self.slot_nodes.len(), violations) {
            return;
        }
        if self.path_runs.len() != self.slot_nodes.len() {
            let (entries, nodes) = (self.path_runs.len(), self.slot_nodes.len());
            let detail = format!("{entries} run entries for {nodes} indexed nodes");
            violations.push(InvariantViolation::new(SUBSTRATE, "path-runs", detail));
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

    /// Test-only corruption hook: overwrites the first path of one term's
    /// run in the term → paths table (breaks `term-paths`).
    #[doc(hidden)]
    pub fn corrupt_term_path(&mut self, id: TermId, path: PathId) {
        self.term_paths[self.term_path_offsets[id.index()] as usize] = path;
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
    /// Verifies what the context index holds: the label table's CSR shape,
    /// each label token's run (non-empty, strictly ascending, inside the path
    /// universe) and the agreement of the two per-path count arrays.
    pub fn verify(&self) -> AuditResult {
        let mut violations = Vec::new();
        let v = &mut violations;
        let (offsets, tokens) = (&self.label_path_offsets, Some(self.labels.len()));
        let runs = csr_shape("context-paths", offsets, tokens, self.label_paths.len(), v);
        let (occurrences, documents) = (&self.counts.occurrences, &self.counts.documents);
        let universe = occurrences.len();
        if documents.len() != universe {
            let detail = format!("{} document counts for {universe} paths", documents.len());
            v.push(InvariantViolation::new(SUBSTRATE, "context-paths", detail));
        }
        for (path, (&nodes, &docs)) in occurrences.iter().zip(documents).enumerate() {
            if docs > nodes || (docs == 0) != (nodes == 0) {
                let detail = format!("path {path} occurs {nodes} time(s) in {docs} document(s)");
                v.push(InvariantViolation::new(SUBSTRATE, "context-paths", detail));
            }
        }
        for (id, bounds) in offsets.windows(2).enumerate().filter(|_| runs) {
            let label = self.labels.resolve(TermId(id as u32));
            let run = &self.label_paths[bounds[0] as usize..bounds[1] as usize];
            if run.is_empty() || !run.windows(2).all(|pair| pair[0] < pair[1]) {
                v.push(InvariantViolation::new(
                    SUBSTRATE,
                    "context-paths",
                    format!("label {label:?} lists paths {run:?}"),
                ));
            }
            if let Some(path) = run.iter().find(|path| path.index() >= universe) {
                let detail = format!("label {label:?} lists path {} outside the universe", path.0);
                v.push(InvariantViolation::new(SUBSTRATE, "context-paths", detail));
            }
        }
        finish(violations)
    }

    /// Test-only corruption hook: overwrites one entry of the label table
    /// (breaks `context-paths`).
    #[doc(hidden)]
    pub fn corrupt_label_path(&mut self, index: usize, path: PathId) {
        self.label_paths[index] = path;
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

    /// One corruption of `ContextIndex` and the details it must produce.
    fn context_violations(
        ctx: &ContextIndex,
        corrupt: impl FnOnce(&mut ContextIndex),
    ) -> Vec<String> {
        let mut ctx = ctx.clone();
        corrupt(&mut ctx);
        ctx.verify()
            .unwrap_err()
            .into_iter()
            .inspect(|v| assert_eq!((v.substrate, v.invariant), ("textindex", "context-paths")))
            .map(|v| v.detail)
            .collect()
    }

    #[test]
    fn context_index_violations_are_named_by_their_table() {
        let (collection, _) = sample();
        let ctx = ContextIndex::build(&collection, CountStorage::DocumentStore);
        assert_eq!(ctx.verify(), Ok(()));
        // Labels "country" (paths 0, 1, 2), "name" (1) and "year" (2).
        assert_eq!(ctx.label_paths, [PathId(0), PathId(1), PathId(2), PathId(1), PathId(2)]);
        assert_eq!(
            context_violations(&ctx, |ctx| ctx.corrupt_label_path(3, PathId(999))),
            ["label \"name\" lists path 999 outside the universe"]
        );
        assert_eq!(
            context_violations(&ctx, |ctx| ctx.corrupt_label_path(1, PathId(0))),
            ["label \"country\" lists paths [PathId(0), PathId(0), PathId(2)]"]
        );
        assert_eq!(
            context_violations(&ctx, |ctx| ctx.label_path_offsets[2] = 5),
            ["label \"year\" lists paths []"]
        );
        assert_eq!(
            context_violations(&ctx, |ctx| ctx.label_path_offsets.pop().map(drop).unwrap()),
            ["3 offsets (Some(0)..Some(4)) for Some(3) rows of 5 entries"]
        );
        assert_eq!(
            context_violations(&ctx, |ctx| ctx.counts.documents[1] = 3),
            ["path 1 occurs 2 time(s) in 3 document(s)"]
        );
        assert_eq!(
            context_violations(&ctx, |ctx| ctx.counts.documents.truncate(2)),
            ["2 document counts for 3 paths"]
        );
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
        index.dict.terms[0] = "zzz-intruder".to_string();
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "termdict-bijection"), "{violations:?}");
    }

    #[test]
    fn swapped_slots_fail_side_table() {
        let (_, mut index) = sample();
        index.slot_nodes.swap(0, 1);
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
    fn rewritten_term_path_fails_term_paths() {
        let (collection, index) = sample();
        let year = collection.paths().get_str(collection.symbols(), "/country/year").unwrap();
        let term = index.term_dict().get("united").unwrap();
        // "united" lies on /country/name alone: a run naming /country/year,
        // and offsets that end short.
        let mut corrupted = index.clone();
        corrupted.corrupt_term_path(term, year);
        let violations = corrupted.verify().unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, "term-paths");
        assert_eq!(
            violations[0].detail,
            format!("term \"united\" lists paths [{year:?}] but its postings lie on [PathId(1)]")
        );
        let mut corrupted = index.clone();
        corrupted.term_path_offsets.pop();
        let violations = corrupted.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "term-paths"), "{violations:?}");
    }
}
