//! The twig evaluator as it shipped before the region-encoded rewrite of
//! `seda_twigjoin::evaluate_twig`, kept verbatim as the differential reference: one
//! pass per pattern node resolving names to strings, streams of Dewey ids
//! (derived here from `Document::parent` and `Document::children`; the store
//! keeps none) in a `HashMap`, chain solutions as `BTreeMap`s hash-joined on
//! their shared pattern nodes, one global sort.  It shares no code with the
//! new evaluator.  The one addition is the anchoring rule both now follow: a root
//! with `Axis::Child` only matches the document's root element.
//!
//! It keeps its own nested result type, so it shares no representation with
//! the evaluator's flat row table either.
//!
//! Included by path from `crates/twigjoin/tests/` and from the root suite
//! (`#[path]`), until ROADMAP item 3's test-support crate absorbs it.

use std::collections::{BTreeMap, HashMap};

use seda_twigjoin::{Axis, TwigPattern};
use seda_xmlstore::{Collection, Document, NodeId};

/// Matches as the old evaluator returned them: one `Vec` a row.
#[derive(Debug)]
pub struct TwigMatches {
    /// Pattern-node indices the rows are projected onto.
    pub output_nodes: Vec<usize>,
    /// One row per match, a node per output node; sorted, no duplicates.
    pub rows: Vec<Vec<NodeId>>,
    /// One count per node per pattern node it was tested against.
    pub nodes_visited: usize,
}

/// A Dewey ID (Tatarinov et al., SIGMOD 2002): the 1-based rank of each node
/// among its parent's children, from the root element (`1`) down.  The
/// vectors' lexicographic order is document order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct DeweyId(Vec<u32>);

impl DeweyId {
    /// The ID of `ordinal`, climbing its parent chain and ranking each node
    /// among its parent's children.
    fn of(document: &Document, ordinal: u32) -> Self {
        let mut components = Vec::new();
        let mut current = ordinal;
        while let Some(parent) = document.parent(current) {
            let children = document.children(parent);
            let rank = children.iter().position(|&c| c == current).expect("a child of its parent");
            components.push(rank as u32 + 1);
            current = parent;
        }
        components.push(1);
        components.reverse();
        DeweyId(components)
    }

    /// True iff `self` is a proper ancestor of `other`.
    fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        other.0.len() > self.0.len() && other.0.starts_with(&self.0)
    }

    /// True iff `self` is the parent of `other`.
    fn is_parent_of(&self, other: &DeweyId) -> bool {
        other.0.len() == self.0.len() + 1 && other.0.starts_with(&self.0)
    }

    /// True iff `self` equals `other` or is an ancestor of `other`.
    fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        self == other || self.is_ancestor_of(other)
    }
}

/// One element of a pattern node's input stream.
#[derive(Debug, Clone)]
struct StreamElement {
    ordinal: u32,
    dewey: DeweyId,
}

/// Builds the Dewey-ordered input stream of one pattern node within one
/// document: nodes whose label matches and whose direct text satisfies the
/// node's predicate.
fn build_stream(
    collection: &Collection,
    document: &Document,
    pattern: &TwigPattern,
    pattern_node: usize,
    nodes_visited: &mut usize,
) -> Vec<StreamElement> {
    let node = pattern.node(pattern_node);
    let mut out = Vec::new();
    for (ordinal, data_node) in document.iter() {
        *nodes_visited += 1;
        if collection.symbols().resolve(data_node.name) != node.label {
            continue;
        }
        // The anchoring rule (not in the parent): `/a` is the root element.
        if pattern_node == pattern.root() && node.axis == Axis::Child && ordinal != 0 {
            continue;
        }
        if let Some(predicate) = &node.predicate {
            let text = data_node.text.as_deref().unwrap_or("");
            if !predicate.matches_text(text) {
                continue;
            }
        }
        out.push(StreamElement { ordinal, dewey: DeweyId::of(document, ordinal) });
    }
    // Document iteration order is document order, which is Dewey order.
    out
}

/// Stack entry of the PathStack algorithm: a stream element plus a pointer to
/// the top of the parent stack at push time.
#[derive(Debug, Clone)]
struct StackEntry {
    ordinal: u32,
    dewey: DeweyId,
    parent_top: isize,
}

/// Runs PathStack for one root-to-leaf chain of the pattern within one
/// document.  Returns chain solutions as vectors of ordinals aligned with
/// `chain`.
fn path_stack(
    chain: &[usize],
    pattern: &TwigPattern,
    streams: &HashMap<usize, Vec<StreamElement>>,
) -> Vec<Vec<u32>> {
    let n = chain.len();
    let mut cursors = vec![0usize; n];
    let mut stacks: Vec<Vec<StackEntry>> = vec![Vec::new(); n];
    let mut solutions = Vec::new();

    loop {
        // Pick the chain position whose next stream element has the minimal
        // Dewey id.
        let mut min_pos: Option<usize> = None;
        for (i, &q) in chain.iter().enumerate() {
            let stream = &streams[&q];
            if cursors[i] >= stream.len() {
                continue;
            }
            let candidate = &stream[cursors[i]].dewey;
            match min_pos {
                None => min_pos = Some(i),
                Some(current) => {
                    let current_dewey = &streams[&chain[current]][cursors[current]].dewey;
                    if candidate < current_dewey {
                        min_pos = Some(i);
                    }
                }
            }
        }
        let Some(i) = min_pos else { break };
        let element = streams[&chain[i]][cursors[i]].clone();
        cursors[i] += 1;

        // Clean every stack: pop entries that cannot be ancestors of the new
        // element (they can never participate in a future solution).
        for stack in stacks.iter_mut() {
            while let Some(top) = stack.last() {
                if top.dewey.is_ancestor_or_self_of(&element.dewey) {
                    break;
                }
                stack.pop();
            }
        }

        // Push only if the parent stack can support the element.
        if i == 0 || !stacks[i - 1].is_empty() {
            let parent_top = if i == 0 { -1 } else { stacks[i - 1].len() as isize - 1 };
            stacks[i].push(StackEntry {
                ordinal: element.ordinal,
                dewey: element.dewey,
                parent_top,
            });
            if i == n - 1 {
                expand_solutions(chain, pattern, &stacks, &mut solutions);
                stacks[n - 1].pop();
            }
        }
    }
    solutions
}

/// Expands every root-to-leaf solution ending at the entry currently on top of
/// the leaf stack.
fn expand_solutions(
    chain: &[usize],
    pattern: &TwigPattern,
    stacks: &[Vec<StackEntry>],
    solutions: &mut Vec<Vec<u32>>,
) {
    let n = chain.len();
    let leaf_entry =
        stacks[n - 1].last().expect("invariant: the leaf entry was just pushed onto its stack");
    // Partial solutions built bottom-up: (current level, ordinals leaf..level).
    let mut partials: Vec<(isize, Vec<u32>, DeweyId)> =
        vec![(leaf_entry.parent_top, vec![leaf_entry.ordinal], leaf_entry.dewey.clone())];
    for level in (0..n - 1).rev() {
        // Axis of the pattern node *below* this level, relating it to the
        // element we are about to pick at this level.
        let axis = pattern.node(chain[level + 1]).axis;
        let mut next = Vec::new();
        for (top, ordinals, child_dewey) in partials {
            if top < 0 {
                continue;
            }
            for entry in &stacks[level][..=top as usize] {
                let structural_ok = match axis {
                    Axis::Child => entry.dewey.is_parent_of(&child_dewey),
                    Axis::Descendant => entry.dewey.is_ancestor_of(&child_dewey),
                };
                if structural_ok {
                    let mut extended = ordinals.clone();
                    extended.push(entry.ordinal);
                    next.push((entry.parent_top, extended, entry.dewey.clone()));
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            return;
        }
    }
    for (_, ordinals, _) in partials {
        // Ordinals were collected leaf-first; reverse to root-first.
        let mut root_first = ordinals;
        root_first.reverse();
        solutions.push(root_first);
    }
}

/// Evaluates a twig pattern over an entire collection.  `nodes_visited` keeps
/// the old meaning (one pass per pattern node) and is not compared.
pub fn evaluate_twig(collection: &Collection, pattern: &TwigPattern) -> TwigMatches {
    let output_nodes = pattern.output_nodes();
    let mut matches =
        TwigMatches { output_nodes: output_nodes.clone(), rows: Vec::new(), nodes_visited: 0 };
    if pattern.is_empty() || output_nodes.is_empty() {
        return matches;
    }
    let chains = pattern.root_to_leaf_chains();

    for document in collection.documents() {
        // Build streams once per document.
        let mut streams: HashMap<usize, Vec<StreamElement>> = HashMap::new();
        let mut missing = false;
        for q in pattern.node_indices() {
            let stream = build_stream(collection, document, pattern, q, &mut matches.nodes_visited);
            if stream.is_empty() {
                missing = true;
                break;
            }
            streams.insert(q, stream);
        }
        if missing {
            continue;
        }

        // Chain solutions, merged on shared pattern nodes.
        let mut merged: Option<Vec<BTreeMap<usize, u32>>> = None;
        for chain in &chains {
            let chain_solutions = path_stack(chain, pattern, &streams);
            if chain_solutions.is_empty() {
                merged = Some(Vec::new());
                break;
            }
            let as_maps: Vec<BTreeMap<usize, u32>> = chain_solutions
                .into_iter()
                .map(|ordinals| chain.iter().copied().zip(ordinals).collect())
                .collect();
            merged = Some(match merged {
                None => as_maps,
                Some(existing) => merge_solutions(existing, as_maps),
            });
            if merged.as_ref().map(Vec::is_empty).unwrap_or(false) {
                break;
            }
        }

        if let Some(solutions) = merged {
            for solution in solutions {
                let row: Option<Vec<NodeId>> = output_nodes
                    .iter()
                    .map(|q| solution.get(q).map(|&o| NodeId::new(document.id, o)))
                    .collect();
                if let Some(row) = row {
                    matches.rows.push(row);
                }
            }
        }
    }
    matches.rows.sort();
    matches.rows.dedup();
    matches
}

/// Hash-joins two sets of partial solutions on their shared pattern nodes.
fn merge_solutions(
    left: Vec<BTreeMap<usize, u32>>,
    right: Vec<BTreeMap<usize, u32>>,
) -> Vec<BTreeMap<usize, u32>> {
    if left.is_empty() || right.is_empty() {
        return Vec::new();
    }
    let left_keys: Vec<usize> = left[0].keys().copied().collect();
    let right_keys: Vec<usize> = right[0].keys().copied().collect();
    let shared: Vec<usize> = left_keys.iter().copied().filter(|k| right_keys.contains(k)).collect();

    let key_of = |solution: &BTreeMap<usize, u32>| -> Vec<u32> {
        shared.iter().map(|k| solution[k]).collect()
    };

    let mut right_by_key: HashMap<Vec<u32>, Vec<&BTreeMap<usize, u32>>> = HashMap::new();
    for r in &right {
        right_by_key.entry(key_of(r)).or_default().push(r);
    }

    let mut out = Vec::new();
    for l in &left {
        if let Some(rs) = right_by_key.get(&key_of(l)) {
            for r in rs {
                let mut combined = l.clone();
                for (&k, &v) in r.iter() {
                    combined.insert(k, v);
                }
                out.push(combined);
            }
        }
    }
    out
}
