//! Holistic, stack-based twig evaluation over region-encoded streams.
//!
//! The complete-result generator of Sec. 7 retrieves the matches of every twig
//! leaf "in Dewey ID order, which can be directly used by the XML twig
//! processing" of Bruno, Koudas and Srivastava (*Holistic twig joins*, SIGMOD
//! 2002).  This module is that machinery, one document at a time:
//!
//! * **Region encoding.**  Holistic twig joins are defined over positions
//!   `(LeftPos : RightPos, LevelNum)`.  Here a node's region is `start` = its
//!   ordinal in the document, `end` = the first ordinal past its subtree and
//!   `level` = its depth, the length of its context.  Ordinals are assigned in
//!   preorder (the audit's `preorder` invariant), which is Dewey order, so
//!   comparing ordinals compares Dewey ids and every structural test is
//!   integer arithmetic: `x` is an ancestor of `y` iff
//!   `x.start < y.start < x.end`, and its parent iff also
//!   `x.level + 1 == y.level`.
//! * **Streams.**  A *stream element* is the region of one data node that
//!   matches one pattern node (label equal, direct text satisfying the node's
//!   predicate; a root with [`Axis::Child`] only matches the document's root
//!   element).  **One** pass over a document fills the streams of all pattern
//!   nodes, in document order.  An element's `end` is not stored anywhere in
//!   the document: the pass keeps a stack of still-open elements and *every*
//!   later node of depth ≤ theirs closes them — not only later stream
//!   elements, or `<r><a><b/></a><c><b/></c></r>` would put the second `b`
//!   under `a`.
//! * **PathStack** (the path-at-a-time half of the holistic twig join family)
//!   runs per root-to-leaf chain of the pattern over those streams and expands
//!   chain solutions from its linked stacks; chain solutions are then joined
//!   on the chain prefix they share with the chains merged before them —
//!   always a prefix, because the merged chains cover an ancestor-closed part
//!   of the pattern tree — by sort + binary search.
//! * **The workspace.**  Streams, stacks, chain solutions and merged solutions
//!   live in flat buffers of one `Workspace` that is allocated once per call
//!   and reused for every document; nothing is allocated per stream element,
//!   per solution or per row.
//! * **Rows sorted by construction.**  Each document's rows are sorted,
//!   deduplicated and appended in place to one flat cell buffer.  Documents
//!   are visited in ascending id order and a row never spans documents, so the
//!   result is globally sorted without a final sort — and an evaluation that
//!   stops early, because its document iterator ends or its caller's stop hook
//!   says so, returns a **prefix** of the full answer.

use std::slice::ChunksExact;

use seda_xmlstore::{Collection, DocId, Document, NodeId, PathTable, Symbol};

use crate::pattern::{Axis, TwigPattern};

/// Matches of a twig pattern over a collection: a flat row table, row *i*
/// being `cells[i·w..(i+1)·w]` for `w` output nodes.  A pattern without
/// output nodes has no rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwigMatches {
    /// Pattern-node indices the rows are projected onto (the output nodes).
    pub output_nodes: Vec<usize>,
    /// The rows, one after the other: a node per output pattern node, in
    /// `output_nodes` order.  Sorted and free of duplicates.
    cells: Vec<NodeId>,
    /// Nodes of the documents the evaluation visited, each counted once (one
    /// pass per document fills every pattern node's stream) — the dominant
    /// work measure of the evaluation, surfaced so callers can attribute twig
    /// cost without re-walking the collection.  A document that is never
    /// scanned (its root element cannot match an anchored pattern root, or
    /// the caller's document iterator left it out) counts nothing.
    pub nodes_visited: usize,
}

impl TwigMatches {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.cells.len() / self.output_nodes.len().max(1)
    }

    /// True when the pattern matched nothing.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The rows, in order, each borrowed from the flat buffer.
    pub fn rows(&self) -> ChunksExact<'_, NodeId> {
        // Without output nodes there are no cells, so any chunk size is empty.
        self.cells.chunks_exact(self.output_nodes.len().max(1))
    }

    /// Index of a pattern node within the output columns.
    pub fn column_of(&self, pattern_node: usize) -> Option<usize> {
        self.output_nodes.iter().position(|&n| n == pattern_node)
    }

    /// The flat row buffer, `output_nodes.len()` cells a row.
    pub fn into_cells(self) -> Vec<NodeId> {
        self.cells
    }
}

/// A stream element: the region of a data node matching one pattern node.
#[derive(Debug, Clone, Copy)]
struct Region {
    /// Ordinal of the node (document order).
    start: u32,
    /// First ordinal past the node's subtree.
    end: u32,
    /// Depth of the node (the root element has depth 1).
    level: u32,
}

impl Region {
    /// The structural test of a pattern edge with `axis`, `self` above `below`.
    fn relates(self, below: Region, axis: Axis) -> bool {
        let ancestor = self.start < below.start && below.start < self.end;
        match axis {
            Axis::Child => ancestor && self.level + 1 == below.level,
            Axis::Descendant => ancestor,
        }
    }
}

/// Stack entry of the PathStack algorithm: a stream element plus the index of
/// the top of the parent position's stack at push time (unused at position 0).
#[derive(Debug, Clone, Copy)]
struct StackEntry {
    region: Region,
    parent_top: u32,
}

/// What one evaluation derives from its pattern, once.
struct Plan<'p> {
    pattern: &'p TwigPattern,
    /// The collection's contexts: a node's depth is its context's length.
    paths: &'p PathTable,
    /// The label of every pattern node, interned.
    symbols: Vec<Symbol>,
    /// True when the root only matches the document's root element.
    anchored: bool,
    /// Root-to-leaf chains, in leaf order.
    chains: Vec<Vec<usize>>,
    /// Per chain: how many of its leading nodes earlier chains already cover.
    shared: Vec<usize>,
    /// Output pattern nodes, in index order.
    outputs: Vec<usize>,
}

impl<'p> Plan<'p> {
    /// `None` when the pattern can match nothing in `collection`: it is empty,
    /// outputs nothing, or names a label the collection never interned.
    fn new(collection: &'p Collection, pattern: &'p TwigPattern) -> Option<Self> {
        let outputs = pattern.output_nodes();
        if pattern.is_empty() || outputs.is_empty() {
            return None;
        }
        let symbols = (0..pattern.len())
            .map(|q| collection.symbols().get(&pattern.node(q).label))
            .collect::<Option<Vec<Symbol>>>()?;
        let chains = pattern.root_to_leaf_chains();
        let mut covered = vec![false; pattern.len()];
        let shared = chains
            .iter()
            .map(|chain| {
                let shared = chain.iter().take_while(|&&q| covered[q]).count();
                chain.iter().for_each(|&q| covered[q] = true);
                shared
            })
            .collect();
        let anchored = pattern.node(pattern.root()).axis == Axis::Child;
        let paths = collection.paths();
        Some(Plan { pattern, paths, symbols, anchored, chains, shared, outputs })
    }
}

/// The reusable buffers of one evaluation; see the module docs.
#[derive(Default)]
struct Workspace {
    /// Per pattern node: its stream within the current document.
    streams: Vec<Vec<Region>>,
    /// Stream elements whose subtree the scan is still inside, outermost
    /// first, as (pattern node, index in its stream).
    open: Vec<(usize, usize)>,
    /// Per chain position: the PathStack stack, its stream cursor and the
    /// stack entry the solution being expanded holds.
    stacks: Vec<Vec<StackEntry>>,
    cursors: Vec<usize>,
    picks: Vec<usize>,
    /// Solutions of the current chain, `chain.len()` ordinals each.
    solutions: Vec<u32>,
    /// Solutions of the chains merged so far, `pattern.len()` ordinals each
    /// (indexed by pattern node), and the buffer the next merge writes.
    merged: Vec<u32>,
    merged_next: Vec<u32>,
    /// Merged solutions projected onto the output nodes.
    projected: Vec<u32>,
    /// Row indices of `solutions` or `projected`, sorted.
    order: Vec<usize>,
}

impl Workspace {
    fn new(plan: &Plan<'_>) -> Self {
        let longest = plan.chains.iter().map(Vec::len).max().unwrap_or(0);
        Workspace {
            streams: vec![Vec::new(); plan.pattern.len()],
            stacks: vec![Vec::new(); longest],
            cursors: vec![0; longest],
            picks: vec![0; longest],
            ..Workspace::default()
        }
    }

    /// Fills every pattern node's stream from one pass over `document`;
    /// false when some stream stayed empty, so the document cannot match.
    fn fill_streams(&mut self, plan: &Plan<'_>, document: &Document) -> bool {
        self.streams.iter_mut().for_each(Vec::clear);
        self.open.clear();
        let past_the_end = document.len() as u32;
        // An anchored root is the root element, nothing below it.
        let anchor = plan.anchored.then_some(plan.pattern.root());
        for (ordinal, node) in document.iter() {
            let level = plan.paths.resolve(node.path).len() as u32;
            while let Some(&(q, at)) = self.open.last() {
                if self.streams[q][at].level < level {
                    break;
                }
                self.streams[q][at].end = ordinal;
                self.open.pop();
            }
            for (q, &symbol) in plan.symbols.iter().enumerate() {
                if symbol != node.name || (Some(q) == anchor && ordinal != 0) {
                    continue;
                }
                if let Some(predicate) = &plan.pattern.node(q).predicate {
                    if !predicate.matches_text(node.text.as_deref().unwrap_or("")) {
                        continue;
                    }
                }
                // Elements still open when the document ends reach to its end.
                self.open.push((q, self.streams[q].len()));
                self.streams[q].push(Region { start: ordinal, end: past_the_end, level });
            }
        }
        self.streams.iter().all(|stream| !stream.is_empty())
    }

    /// Runs PathStack for one root-to-leaf chain over the current streams and
    /// leaves the chain's solutions, root first, in `self.solutions`.
    fn path_stack(&mut self, plan: &Plan<'_>, chain: &[usize]) {
        let n = chain.len();
        self.solutions.clear();
        self.stacks[..n].iter_mut().for_each(Vec::clear);
        self.cursors[..n].fill(0);
        // Only a leaf element completes a solution: stop with the leaf stream.
        while self.cursors[n - 1] < self.streams[chain[n - 1]].len() {
            // The chain position whose next stream element comes first in
            // document order; a node matching two positions goes to the
            // earlier position first.
            let mut next: Option<(usize, Region)> = None;
            for (i, &q) in chain.iter().enumerate() {
                if let Some(&candidate) = self.streams[q].get(self.cursors[i]) {
                    if next.is_none_or(|(_, first)| candidate.start < first.start) {
                        next = Some((i, candidate));
                    }
                }
            }
            let Some((i, element)) = next else { break };
            self.cursors[i] += 1;

            // Clean every stack: keep only ancestors-or-self of the new
            // element (the others can never take part in a later solution).
            for stack in &mut self.stacks[..n] {
                while stack.last().is_some_and(|top| top.region.end <= element.start) {
                    stack.pop();
                }
            }

            // Push only if the parent stack can support the element.
            if i == 0 || !self.stacks[i - 1].is_empty() {
                let parent_top = if i == 0 { 0 } else { self.stacks[i - 1].len() as u32 - 1 };
                self.stacks[i].push(StackEntry { region: element, parent_top });
                if i == n - 1 {
                    self.expand_solutions(plan, chain);
                    self.stacks[n - 1].pop();
                }
            }
        }
    }

    /// Appends every root-to-leaf solution ending at the entry on top of the
    /// leaf stack: a depth-first walk from the leaf towards the root over the
    /// stack entries each pick's `parent_top` allows, `picks[l]` holding the
    /// entry chosen at position `l`.
    fn expand_solutions(&mut self, plan: &Plan<'_>, chain: &[usize]) {
        let Workspace { stacks, picks, solutions, .. } = self;
        let leaf = chain.len() - 1;
        let Some(top) = stacks[leaf].len().checked_sub(1) else { return };
        picks[leaf] = top;
        if leaf == 0 {
            solutions.push(stacks[0][top].region.start);
            return;
        }
        // Positions `level..=leaf` hold picks; `from` is the first entry of
        // position `level - 1` not tried yet under them.
        let (mut level, mut from) = (leaf, 0);
        loop {
            let below = stacks[level][picks[level]];
            // Axis of the pattern node at `level`, relating it to the entry
            // about to be picked above it.
            let axis = plan.pattern.node(chain[level]).axis;
            let above = &stacks[level - 1];
            let found = (from..=below.parent_top as usize)
                .find(|&j| above[j].region.relates(below.region, axis));
            match found {
                Some(j) if level == 1 => {
                    picks[0] = j;
                    solutions.extend((0..=leaf).map(|l| stacks[l][picks[l]].region.start));
                    from = j + 1;
                }
                Some(j) => {
                    picks[level - 1] = j;
                    level -= 1;
                    from = 0;
                }
                None if level == leaf => return,
                None => {
                    from = picks[level] + 1;
                    level += 1;
                }
            }
        }
    }

    /// Joins the current chain's solutions into the merged solutions on the
    /// `shared` leading chain nodes the merged solutions already hold.
    fn merge_chain(&mut self, chain: &[usize], shared: usize, width: usize) {
        let Workspace { solutions, merged, merged_next, order, .. } = self;
        let n = chain.len();
        let solution = |row: usize| &solutions[row * n..][..n];
        // The key of a merged solution, compared with a chain solution's.
        let key_of = |merged_row: &[u32], row: usize| {
            let key = chain[..shared].iter().map(|&q| merged_row[q]);
            solution(row)[..shared].iter().copied().cmp(key)
        };
        order.clear();
        order.extend(0..solutions.len() / n);
        order.sort_unstable_by(|&a, &b| solution(a)[..shared].cmp(&solution(b)[..shared]));
        merged_next.clear();
        for merged_row in merged.chunks_exact(width) {
            let first = order.partition_point(|&row| key_of(merged_row, row).is_lt());
            for &row in order[first..].iter().take_while(|&&row| key_of(merged_row, row).is_eq()) {
                let at = merged_next.len();
                merged_next.extend_from_slice(merged_row);
                for (&q, &ordinal) in chain[shared..].iter().zip(&solution(row)[shared..]) {
                    merged_next[at + q] = ordinal;
                }
            }
        }
        std::mem::swap(merged, merged_next);
    }

    /// Evaluates the pattern over the current streams and appends the
    /// document's rows — sorted, free of duplicates — to `cells`.
    fn append_rows(&mut self, plan: &Plan<'_>, doc: DocId, cells: &mut Vec<NodeId>) {
        let width = plan.pattern.len();
        // One merged solution that covers no pattern node yet.
        self.merged.clear();
        self.merged.resize(width, 0);
        for (chain, &shared) in plan.chains.iter().zip(&plan.shared) {
            self.path_stack(plan, chain);
            self.merge_chain(chain, shared, width);
            if self.merged.is_empty() {
                return;
            }
        }
        let Workspace { merged, projected, order, .. } = self;
        projected.clear();
        for solution in merged.chunks_exact(width) {
            projected.extend(plan.outputs.iter().map(|&q| solution[q]));
        }
        let k = plan.outputs.len();
        let row = |r: usize| &projected[r * k..][..k];
        order.clear();
        order.extend(0..projected.len() / k);
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        cells.extend(
            order.iter().flat_map(|&r| row(r).iter().map(move |&node| NodeId::new(doc, node))),
        );
    }
}

/// Evaluates a twig pattern over an entire collection.
pub fn evaluate_twig(collection: &Collection, pattern: &TwigPattern) -> TwigMatches {
    evaluate_twig_in(collection, pattern, collection.documents(), |_| false)
}

/// Evaluates a twig pattern over `documents` of `collection`, which must come
/// in ascending id order (any subsequence of [`Collection::documents`]).
///
/// `stop` is asked before each document with the number of rows matched so
/// far; once it answers `true` the evaluation ends there.  The rows are those
/// of [`evaluate_twig`] that lie in the documents evaluated, in the same
/// order, so an iterator that ends early or a stop — a caller's deadline or
/// row ceiling, say — yields a prefix of the rows a longer run would.
pub fn evaluate_twig_in<'a>(
    collection: &Collection,
    pattern: &TwigPattern,
    documents: impl IntoIterator<Item = &'a Document>,
    mut stop: impl FnMut(usize) -> bool,
) -> TwigMatches {
    let mut matches =
        TwigMatches { output_nodes: pattern.output_nodes(), ..TwigMatches::default() };
    let Some(plan) = Plan::new(collection, pattern) else { return matches };
    let root = plan.symbols[pattern.root()];
    let mut workspace = Workspace::new(&plan);
    for document in documents {
        if stop(matches.len()) {
            break;
        }
        debug_assert!(matches.cells.last().is_none_or(|node| node.doc < document.id));
        // A document whose root element is not the anchored root is not scanned.
        let root_element = document.node(document.root());
        if plan.anchored && root_element.map_or(true, |node| node.name != root) {
            continue;
        }
        matches.nodes_visited += document.len();
        if workspace.fill_streams(&plan, document) {
            workspace.append_rows(&plan, document.id, &mut matches.cells);
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TwigPattern;
    use seda_textindex::FullTextQuery;
    use seda_xmlstore::parse_collection;

    fn factbook() -> Collection {
        parse_collection(vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "mx.xml",
                r#"<country><name>Mexico</name><year>2005</year>
                     <economy><import_partners>
                       <item><trade_country>United States</trade_country><percentage>53.4</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            ("ca.xml", r#"<country><name>Canada</name><year>2006</year><economy/></country>"#),
        ])
        .unwrap()
    }

    #[test]
    fn single_path_twig_matches_all_instances() {
        let c = factbook();
        let p = TwigPattern::parse("/country/economy/import_partners/item/percentage").unwrap();
        let m = evaluate_twig(&c, &p);
        assert_eq!(m.len(), 3);
        for row in m.rows() {
            assert_eq!(c.node_name(row[0]).unwrap(), "percentage");
        }
    }

    #[test]
    fn branching_twig_pairs_siblings_correctly() {
        let c = factbook();
        let (p, _) = TwigPattern::from_paths([
            &["country", "name"][..],
            &["country", "economy", "import_partners", "item", "trade_country"],
            &["country", "economy", "import_partners", "item", "percentage"],
        ])
        .unwrap();
        let m = evaluate_twig(&c, &p);
        // US has 2 items, Mexico 1, Canada none (no import_partners) -> 3 rows.
        assert_eq!(m.len(), 3);
        assert_eq!(m.column_of(m.output_nodes[0]), Some(0));
        for row in m.rows() {
            let contents: Vec<String> = row.iter().map(|&n| c.content(n).unwrap()).collect();
            // trade_country and percentage must come from the same item.
            let valid = matches!(
                (contents[1].as_str(), contents[2].as_str()),
                ("China", "15") | ("Canada", "16.9") | ("United States", "53.4")
            );
            assert!(valid, "mismatched siblings: {contents:?}");
        }
    }

    #[test]
    fn predicates_filter_matches() {
        let c = factbook();
        let (mut p, ends) = TwigPattern::from_paths([
            &["country", "name"][..],
            &["country", "economy", "import_partners", "item", "trade_country"],
        ])
        .unwrap();
        p.set_predicate(ends[1], FullTextQuery::phrase("United States"));
        let m = evaluate_twig(&c, &p);
        assert_eq!(m.len(), 1);
        let contents: Vec<String> =
            m.rows().next().unwrap().iter().map(|&n| c.content(n).unwrap()).collect();
        assert_eq!(contents, vec!["Mexico", "United States"]);
    }

    #[test]
    fn descendant_axis_skips_levels() {
        let c = factbook();
        let mut p = TwigPattern::with_root("country");
        let tc = p.add_child(0, "trade_country", Axis::Descendant);
        p.set_output(tc, true);
        let m = evaluate_twig(&c, &p);
        assert_eq!(m.len(), 3, "descendant axis reaches trade_country at any depth");
    }

    #[test]
    fn child_axis_is_strict() {
        let c = factbook();
        let mut p = TwigPattern::with_root("country");
        let tc = p.add_child(0, "trade_country", Axis::Child);
        p.set_output(tc, true);
        let m = evaluate_twig(&c, &p);
        assert!(m.is_empty(), "trade_country is never a direct child of country");
    }

    #[test]
    fn unmatched_patterns_return_empty() {
        let c = factbook();
        let p = TwigPattern::parse("/country/nonexistent").unwrap();
        assert!(evaluate_twig(&c, &p).is_empty());
        let p = TwigPattern::parse("/city/name").unwrap();
        assert!(evaluate_twig(&c, &p).is_empty());
    }

    #[test]
    fn output_projection_respects_output_flags() {
        let c = factbook();
        let mut p = TwigPattern::parse("/country/year").unwrap();
        // Also output the root.
        p.set_output(0, true);
        let m = evaluate_twig(&c, &p);
        assert_eq!(m.output_nodes.len(), 2);
        assert_eq!(m.len(), 3);
        for row in m.rows() {
            assert_eq!(c.node_name(row[0]).unwrap(), "country");
            assert_eq!(c.node_name(row[1]).unwrap(), "year");
        }
    }

    #[test]
    fn duplicate_free_results() {
        let c = factbook();
        let p = TwigPattern::from_paths([["country", "name"], ["country", "year"]]).unwrap().0;
        let m = evaluate_twig(&c, &p);
        assert_eq!(m.len(), 3);
        let mut rows: Vec<&[NodeId]> = m.rows().collect();
        rows.dedup();
        assert_eq!(rows.len(), m.len());
    }

    /// A stop hook that answers once more than `ceiling` rows are in ends the
    /// evaluation before the next document: a prefix, cut at the first
    /// document that crossed the ceiling.
    #[test]
    fn a_stop_hook_ends_the_evaluation_before_the_next_document() {
        let c = factbook();
        let p = TwigPattern::parse("/country/economy/import_partners/item/percentage").unwrap();
        let full = evaluate_twig(&c, &p);
        let mut asked = Vec::new();
        let cut = evaluate_twig_in(&c, &p, c.documents(), |rows| {
            asked.push(rows);
            rows > 1
        });
        // US holds two items: asked before it (0 rows) and before Mexico (2).
        assert_eq!(asked, vec![0, 2]);
        assert_eq!(cut.len(), 2);
        assert_eq!(cut.rows().collect::<Vec<_>>(), full.rows().take(2).collect::<Vec<_>>());
        assert_eq!(cut.nodes_visited, c.documents().next().unwrap().len());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The flat buffer read back as rows is the nested-vector model it
        /// was flattened from, at every width — none included, which has no
        /// rows.
        #[test]
        fn rows_read_back_the_nested_model(
            width in 0usize..5,
            drawn in proptest::collection::vec(proptest::collection::vec(0u32..50, 4..5), 0..12),
        ) {
            let nested: Vec<Vec<NodeId>> = match width {
                0 => Vec::new(),
                _ => drawn
                    .iter()
                    .map(|row| row[..width].iter().map(|&n| NodeId::new(DocId(n / 10), n)).collect())
                    .collect(),
            };
            let matches =
                TwigMatches { output_nodes: (0..width).collect(), cells: nested.concat(), nodes_visited: 0 };
            proptest::prop_assert_eq!(matches.len(), nested.len());
            proptest::prop_assert_eq!(matches.is_empty(), nested.is_empty());
            proptest::prop_assert_eq!(matches.rows().map(<[_]>::to_vec).collect::<Vec<_>>(), nested.clone());
            proptest::prop_assert_eq!(matches.into_cells(), nested.concat());
        }
    }
}
