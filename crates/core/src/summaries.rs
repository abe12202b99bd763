//! Context and connection summaries (Sec. 5 and 6).

use seda_dataguide::Connection;
use seda_textindex::PathEntry;
use seda_xmlstore::{Collection, PathId};

/// The context bucket of one query term: every distinct path the term appears
/// in across the entire collection, with absolute path frequencies, sorted by
/// descending frequency (the order the SEDA GUI displays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextBucket {
    /// Index of the query term this bucket belongs to.
    pub term: usize,
    /// Human-readable label of the term.
    pub label: String,
    /// The bucket entries.
    pub entries: Vec<PathEntry>,
}

impl ContextBucket {
    /// The paths of the bucket, most frequent first.
    pub fn paths(&self) -> Vec<PathId> {
        self.entries.iter().map(|e| e.path).collect()
    }

    /// Renders the bucket as `path (frequency)` lines.
    pub fn display(&self, collection: &Collection) -> Vec<String> {
        self.entries
            .iter()
            .map(|e| format!("{} ({})", collection.path_string(e.path), e.frequency))
            .collect()
    }
}

/// The context summary of a query: one bucket per query term.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContextSummary {
    /// One bucket per query term, in term order.
    pub buckets: Vec<ContextBucket>,
}

impl ContextSummary {
    /// The bucket of a term.
    pub fn bucket(&self, term: usize) -> Option<&ContextBucket> {
        self.buckets.iter().find(|b| b.term == term)
    }

    /// Total number of distinct contexts across all terms.
    pub fn total_contexts(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.len()).sum()
    }
}

/// The connection summary of a query: the pairwise connections observed
/// between the nodes of the top-k result, most frequent first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnectionSummary {
    /// The connections, most frequent first.
    pub connections: Vec<Connection>,
}

impl ConnectionSummary {
    /// Number of distinct connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// True when no connections were discovered.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Connections between the two given contexts (either orientation).
    pub fn between(&self, a: PathId, b: PathId) -> Vec<&Connection> {
        self.connections
            .iter()
            .filter(|c| {
                (c.from_path == a && c.to_path == b) || (c.from_path == b && c.to_path == a)
            })
            .collect()
    }

    /// Renders the summary as human-readable lines.
    pub fn display(&self, collection: &Collection) -> Vec<String> {
        self.connections
            .iter()
            .map(|c| format!("{} [support {}]", c.display(collection), c.support))
            .collect()
    }
}

/// Per-term context selections made by the user in the context summary panel.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ContextSelections {
    selections: Vec<(usize, Vec<PathId>)>,
}

impl ContextSelections {
    /// No selections: every term keeps its original context spec.
    pub fn none() -> Self {
        ContextSelections::default()
    }

    /// Selects the given contexts for a term (replacing earlier selections
    /// for that term).  A repeated path names the same context once: the
    /// first occurrences are kept, in order — the order the complete-result
    /// generator enumerates context combinations in.
    pub fn select(&mut self, term: usize, paths: Vec<PathId>) -> &mut Self {
        let mut unique = Vec::with_capacity(paths.len());
        for path in paths {
            if !unique.contains(&path) {
                unique.push(path);
            }
        }
        self.selections.retain(|(t, _)| *t != term);
        self.selections.push((term, unique));
        self
    }

    /// The selection for a term, if any.
    pub fn for_term(&self, term: usize) -> Option<&[PathId]> {
        self.selections.iter().find(|(t, _)| *t == term).map(|(_, p)| p.as_slice())
    }

    /// Iterates over the `(term, selected paths)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[PathId])> {
        self.selections.iter().map(|(t, p)| (*t, p.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_selections_replace_per_term() {
        let mut s = ContextSelections::none();
        assert_eq!(s.iter().count(), 0);
        s.select(0, vec![PathId(1), PathId(2)]);
        s.select(0, vec![PathId(3)]);
        s.select(2, vec![PathId(4)]);
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.for_term(0), Some(&[PathId(3)][..]));
        assert_eq!(s.for_term(1), None);
        assert_eq!(s.for_term(2), Some(&[PathId(4)][..]));
    }

    #[test]
    fn context_summary_lookup() {
        let summary = ContextSummary {
            buckets: vec![ContextBucket {
                term: 1,
                label: "(percentage, *)".into(),
                entries: vec![],
            }],
        };
        assert!(summary.bucket(1).is_some());
        assert!(summary.bucket(0).is_none());
        assert_eq!(summary.total_contexts(), 0);
    }

    #[test]
    fn connection_summary_between_is_symmetric() {
        use seda_dataguide::Connection;
        let conn = Connection {
            from_path: PathId(1),
            to_path: PathId(2),
            signature: vec![PathId(1), PathId(9), PathId(2)],
            edge_kinds: vec![],
            support: 3,
        };
        let summary = ConnectionSummary { connections: vec![conn] };
        assert_eq!(summary.between(PathId(1), PathId(2)).len(), 1);
        assert_eq!(summary.between(PathId(2), PathId(1)).len(), 1);
        assert_eq!(summary.between(PathId(1), PathId(3)).len(), 0);
        assert_eq!(summary.len(), 1);
    }
}
