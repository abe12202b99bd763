//! Structural invariant auditing — the `seda-audit` layer for the full-text
//! indexes.
//!
//! # Invariant catalog (substrate `textindex`)
//!
//! | class | invariant |
//! |---|---|
//! | `termdict-bijection` | the dictionary's offsets are a well-formed CSR over its term arena, cut at character boundaries, and its terms strictly ascend (so ids are ranks and `get(resolve(id)) == id` both ways); no term without a posting |
//! | `csr-offsets` | the posting lists' offsets have length `dict.len() + 1`, start at 0, are monotone and end at the posting arena's length |
//! | `postings-sorted` | every posting is an indexed node's slot; the score segments cut every term's list; inside a list the segment scores are finite and strictly descend and the slots inside a segment strictly ascend — (score desc, node asc), nodes distinct; each posting's segment score has the bits of `tf · idf / √len` over its node's tokens |
//! | `node-side-table` | slots are dense and strictly ascending by node id; the side tables align |
//! | `token-arena` | `token_offsets` has length slots + 1, starts at 0, is monotone and ends at the arena length; every id is in the dictionary; no slot is empty; every posting's node holds the term, and the postings' term frequencies add up to the arena's length (no token without its posting) |
//! | `path-runs` | run offsets and score segments are well-formed as for the postings, each run sorted by (score desc, node asc); every slot appears exactly once, in its own path's run, at the bits of `1/√len` |
//! | `term-paths` | `term_path_offsets` has length `dict.len() + 1`, starts at 0, is monotone and ends at the table's length; each term's run is strictly ascending and equals the distinct side-table paths of its postings' slots |
//! | `context-paths` | the context index's label table has one well-formed CSR offset per label token plus one; each label token's run is non-empty, strictly ascending and inside the path universe (the count arrays' length); the two count arrays align, and a path occurs in no more documents than nodes, and in some document exactly when it occurs at all |
//!
//! The violation type lives in [`seda_xmlstore::audit`] so every substrate
//! reports through one shape; see there for the catalog conventions.

use seda_xmlstore::audit::{finish, AuditResult, InvariantViolation};
use seda_xmlstore::PathId;

use crate::context_index::ContextIndex;
use crate::dict::{csr_row, TermId};
use crate::node_index::{match_all_score, term_score, NodeIndex, ScoredSlots};

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
    /// Verifies every table of the index: the dictionary's order, CSR offset
    /// well-formedness, the node side table, the token arena, the scored
    /// lists (postings and match-all runs) against the tokens, the term →
    /// paths table and that postings and tokens tell one story.
    pub fn verify(&self) -> AuditResult {
        if *self == NodeIndex::default() {
            return Ok(()); // never built: no table, nothing to break
        }
        let mut violations = Vec::new();
        let terms_readable = self.verify_dict(&mut violations);
        let before_slots = violations.len();
        self.verify_side_table(&mut violations);
        self.verify_token_arena(&mut violations);
        // Postings and runs are slots scored from their tokens: over a broken
        // side table or token arena their walks would only echo it, and the
        // postings name their terms.
        let slots_readable = violations.len() == before_slots;
        let postings_readable =
            terms_readable && self.verify_postings(slots_readable, &mut violations);
        if slots_readable {
            self.verify_path_runs(&mut violations);
        }
        // The term → paths table is read off the postings' slots: over broken
        // ones it would only echo their violations.
        if postings_readable && slots_readable {
            self.verify_term_paths(&mut violations);
        }
        finish(violations)
    }

    /// `termdict-bijection`: the arena's offsets are a CSR over its bytes,
    /// cut at character boundaries, and the terms strictly ascend — so ids
    /// are ranks and the binary search of `get` finds each term at its id.
    /// Returns whether every term can be read.
    fn verify_dict(&self, violations: &mut Vec<InvariantViolation>) -> bool {
        let dict = &self.dict;
        let class = "termdict-bijection";
        if !csr_shape(class, &dict.offsets, None, dict.text.len(), violations) {
            return false;
        }
        if let Some(at) = dict.offsets.iter().find(|&&at| !dict.text.is_char_boundary(at as usize))
        {
            let detail = format!("offset {at} cuts a character of the term arena");
            violations.push(InvariantViolation::new(SUBSTRATE, class, detail));
            return false;
        }
        for id in 1..dict.len() as u32 {
            let (before, term) = (dict.resolve(TermId(id - 1)), dict.resolve(TermId(id)));
            if before >= term {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    class,
                    format!("term {term:?} (id {id}) does not sort after {before:?}"),
                ));
            }
        }
        true
    }

    /// The shape every scored list keeps: its offsets are a CSR over its
    /// slots (a violation of `offsets_class`); every slot is an indexed
    /// node's; the segments cut the slots from the first to the last, every
    /// list starting one; and inside a list the segment scores are finite
    /// and strictly descend while inside a segment the slots strictly ascend
    /// — (score desc, node asc), no node twice (violations of `class`).
    /// Returns whether the lists can be read.
    fn verify_scored_shape(
        &self,
        list: &ScoredSlots,
        keys: Option<usize>,
        [offsets_class, class]: [&'static str; 2],
        violations: &mut Vec<InvariantViolation>,
    ) -> bool {
        if !csr_shape(offsets_class, &list.offsets, keys, list.slots.len(), violations) {
            return false;
        }
        let mut push = |detail: String| {
            violations.push(InvariantViolation::new(SUBSTRATE, class, detail));
        };
        let slots = self.slot_nodes.len();
        let stray = list.slots.iter().position(|&slot| slot as usize >= slots);
        if let Some(at) = stray {
            push(format!("entry {at} is slot {} of {slots} indexed nodes", list.slots[at]));
        }
        let ends = &list.segment_ends;
        let mut previous = 0;
        let cut = list.segment_scores.len() == ends.len()
            && ends.iter().all(|&end| std::mem::replace(&mut previous, end) < end)
            && ends.last().map_or(0, |&end| end as usize) == list.slots.len()
            && list.offsets.iter().all(|&start| {
                start == 0
                    || start as usize == list.slots.len()
                    || ends.binary_search(&start).is_ok()
            });
        if !cut {
            let (n, scores, last) = (ends.len(), list.segment_scores.len(), ends.last());
            push(format!("{n} segment ends ({scores} scores, last {last:?}) do not cut the lists"));
            return false;
        }
        for key in 0..list.offsets.len() - 1 {
            let mut segments = list.segments(list.range(key)).peekable();
            while let Some((score, slots)) = segments.next() {
                let next = segments.peek().map(|&(next, _)| next);
                if !score.is_finite() || next.is_some_and(|next| next >= score) {
                    push(format!(
                        "list {key}: a segment scored {score} before one scored {next:?}"
                    ));
                }
                if let Some(pair) = slots.windows(2).find(|pair| pair[0] >= pair[1]) {
                    push(format!(
                        "list {key}: slot {} before slot {} at {score}",
                        pair[0], pair[1]
                    ));
                }
            }
        }
        stray.is_none()
    }

    /// The posting lists against the dictionary, the side table and the
    /// tokens; returns whether their slots can be read.
    ///
    /// `csr-offsets` and `postings-sorted`: the scored lists' shape.
    /// `termdict-bijection`: every interned term has a posting.
    ///
    /// Over a readable side table and token arena (`slots_readable`):
    /// `token-arena` — the node holds the term, and the term frequencies add
    /// up to the arena's length (with distinct nodes in a list, every posting
    /// covers its own tokens, so a token without its posting leaves the sum
    /// short); then, over tokens that hold their postings, `postings-sorted`
    /// — each posting's segment score has the bits `tf · idf / √len` of its
    /// node's tokens.
    fn verify_postings(
        &self,
        slots_readable: bool,
        violations: &mut Vec<InvariantViolation>,
    ) -> bool {
        let classes = ["csr-offsets", "postings-sorted"];
        let keys = Some(self.dict.len());
        if !self.verify_scored_shape(&self.postings, keys, classes, violations) {
            return false;
        }
        for id in (0..self.dict.len() as u32).map(TermId) {
            if self.term_range(id).is_empty() {
                violations.push(InvariantViolation::new(
                    SUBSTRATE,
                    "termdict-bijection",
                    format!("term {:?} is interned but has no posting", self.dict.resolve(id)),
                ));
            }
        }
        if !slots_readable {
            return true;
        }
        let before_tokens = violations.len();
        let mut covered = 0;
        for id in (0..self.dict.len() as u32).map(TermId) {
            for &slot in &self.postings.slots[self.term_range(id)] {
                let tokens = self.tokens_of(slot as usize);
                let tf = tokens.iter().filter(|&&token| token == id).count();
                covered += tf;
                if tf == 0 {
                    violations.push(InvariantViolation::new(
                        SUBSTRATE,
                        "token-arena",
                        format!(
                            "posting of {:?} for {:?}, whose {} tokens do not hold the term",
                            self.dict.resolve(id),
                            self.slot_nodes[slot as usize],
                            tokens.len()
                        ),
                    ));
                }
            }
        }
        if covered != self.slot_tokens.len() {
            violations.push(InvariantViolation::new(
                SUBSTRATE,
                "token-arena",
                format!(
                    "the postings' term frequencies cover {covered} of the arena's {} tokens",
                    self.slot_tokens.len()
                ),
            ));
        }
        if violations.len() > before_tokens {
            return true;
        }
        for id in (0..self.dict.len() as u32).map(TermId) {
            let idf = self.idf(id);
            for (score, slots) in self.postings.segments(self.term_range(id)) {
                for &slot in slots {
                    let tokens = self.tokens_of(slot as usize);
                    let tf = tokens.iter().filter(|&&token| token == id).count();
                    let expected = term_score(tf, idf, tokens.len());
                    if expected.to_bits() != score.to_bits() {
                        violations.push(InvariantViolation::new(
                            SUBSTRATE,
                            "postings-sorted",
                            format!(
                                "posting of {:?} for {:?} sits at score {score}, but the node \
                                 holds the term {tf} time(s) among {} tokens (score {expected})",
                                self.dict.resolve(id),
                                self.slot_nodes[slot as usize],
                                tokens.len()
                            ),
                        ));
                    }
                }
            }
        }
        true
    }

    /// `term-paths`: the table is a CSR over the dictionary, and each term's
    /// run is the distinct side-table paths of its postings' slots,
    /// ascending.
    fn verify_term_paths(&self, violations: &mut Vec<InvariantViolation>) {
        let (offsets, terms) = (&self.term_path_offsets, self.dict.len());
        if !csr_shape("term-paths", offsets, Some(terms), self.term_paths.len(), violations) {
            return;
        }
        let mut postings_on: Vec<PathId> = Vec::new();
        for term in 0..terms {
            let id = TermId(term as u32);
            postings_on.clear();
            let slots = &self.postings.slots[self.term_range(id)];
            postings_on.extend(slots.iter().map(|&slot| self.slot_paths[slot as usize]));
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

    /// `path-runs`: the scored lists' shape; every slot exactly once, in its
    /// own path's run, at the score `1/√len` of its token count.
    fn verify_path_runs(&self, violations: &mut Vec<InvariantViolation>) {
        let runs = &self.path_runs;
        if !self.verify_scored_shape(runs, None, ["path-runs"; 2], violations) {
            return;
        }
        let slots = self.slot_nodes.len();
        if runs.slots.len() != slots {
            let entries = runs.slots.len();
            let detail = format!("{entries} run entries for {slots} indexed nodes");
            violations.push(InvariantViolation::new(SUBSTRATE, "path-runs", detail));
            return;
        }
        // As many entries as slots and no slot twice: every node exactly once.
        let mut seen = vec![false; slots];
        for path in 0..runs.offsets.len() - 1 {
            for (score, run) in runs.segments(runs.range(path)) {
                for &slot in run {
                    let expected = match_all_score(self.tokens_of(slot as usize).len());
                    let problem = if std::mem::replace(&mut seen[slot as usize], true) {
                        "appears twice".to_string()
                    } else if self.slot_paths[slot as usize].index() != path {
                        format!("belongs to path {}", self.slot_paths[slot as usize].0)
                    } else if expected.to_bits() != score.to_bits() {
                        format!("sits at score {score}, its length scores {expected}")
                    } else {
                        continue;
                    };
                    let node = self.slot_nodes[slot as usize];
                    let detail = format!("run of path {path}: slot {slot} ({node:?}) {problem}");
                    violations.push(InvariantViolation::new(SUBSTRATE, "path-runs", detail));
                }
            }
        }
    }

    /// Test-only corruption hook: swaps two entries of the frozen posting
    /// arena (breaks `postings-sorted` without touching offsets).
    #[doc(hidden)]
    pub fn corrupt_swap_sorted_postings(&mut self, a: usize, b: usize) {
        self.postings.slots.swap(a, b);
    }

    /// Test-only corruption hook: overwrites one CSR offset (breaks
    /// `csr-offsets` monotonicity / bounds).
    #[doc(hidden)]
    pub fn corrupt_posting_offset(&mut self, index: usize, value: u32) {
        self.postings.offsets[index] = value;
    }

    /// Test-only corruption hook: swaps two entries of the path-partitioned
    /// match-all runs (breaks `path-runs`: order inside a run, or which run a
    /// node sits in).
    #[doc(hidden)]
    pub fn corrupt_swap_path_runs(&mut self, a: usize, b: usize) {
        self.path_runs.slots.swap(a, b);
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
        let start = index.posting_range(term).0;
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
        let (_, index) = sample();
        // "2003" is the first term: as "z003" it sorts after every other, so
        // ids are no longer ranks and `get` cannot find it.
        let mut corrupted = index.clone();
        corrupted.dict.text.replace_range(0..1, "z");
        let violations = corrupted.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "termdict-bijection"), "{violations:?}");
        assert_eq!(corrupted.term_dict().get("z003"), None);
        // An offset past the arena.
        let mut corrupted = index.clone();
        corrupted.dict.offsets[1] = u32::MAX;
        let violations = corrupted.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "termdict-bijection"), "{violations:?}");
        // An offset inside a character: the arena is "zebraüber", "ü" bytes 5..7.
        let collection = parse_collection(vec![("c.xml", "<a><b>über</b><c>zebra</c></a>")]);
        let mut corrupted = NodeIndex::build(&collection.unwrap());
        assert_eq!(corrupted.dict.text, "zebraüber");
        corrupted.dict.offsets[1] = 6;
        let violations = corrupted.verify().unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].detail, "offset 6 cuts a character of the term arena");
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
    fn a_posting_outside_the_side_table_fails_postings_sorted() {
        let (_, mut index) = sample();
        let term = index.term_dict().get("united").unwrap();
        let slots = index.indexed_node_count() as u32;
        let first = index.posting_range(term).0;
        index.postings.slots[first] = slots;
        let violations = index.verify().unwrap_err();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].invariant, "postings-sorted");
        assert_eq!(violations[0].detail, format!("entry {first} is slot 4 of 4 indexed nodes"));
        // Segments that do not cut the lists where they start.
        let (_, mut index) = sample();
        index.postings.segment_ends.remove(0);
        index.postings.segment_scores.remove(0);
        let violations = index.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "postings-sorted"), "{violations:?}");
    }

    #[test]
    fn swapped_run_entries_fail_path_runs() {
        let (_, index) = sample();
        // Inside one run: "United States" (2 tokens) ranks above "United Mexican
        // States" (3 tokens) on /country/name, so the swap breaks the order.
        let runs = &index.path_runs;
        let name_run = (0..runs.offsets.len() - 1)
            .map(|path| runs.range(path))
            .find(|run| run.len() == 2 && index.tokens_of(runs.slots[run.start] as usize).len() > 1)
            .expect("the /country/name run");
        // Across runs: the first and last entries belong to different paths.
        for (a, b) in [(name_run.start, name_run.start + 1), (0, runs.slots.len() - 1)] {
            let mut corrupted = index.clone();
            corrupted.corrupt_swap_path_runs(a, b);
            let violations = corrupted.verify().unwrap_err();
            assert!(violations.iter().all(|v| v.invariant == "path-runs"), "{violations:?}");
        }
        // A slot outside the side table.
        let mut corrupted = index.clone();
        corrupted.path_runs.slots[0] = index.indexed_node_count() as u32;
        let violations = corrupted.verify().unwrap_err();
        assert!(violations.iter().all(|v| v.invariant == "path-runs"), "{violations:?}");
        assert_eq!(violations[0].detail, "entry 0 is slot 4 of 4 indexed nodes");
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
