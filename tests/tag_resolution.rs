//! `(tag, *)` → allowed paths, against the walk it replaced.
//!
//! A star-free tag is resolved through the symbol table and an integer
//! compare of path leaves; a wildcard tag still walks the path table and
//! matches leaf names as strings.  Both must give what the walk gives — the
//! same paths in the same ascending [`PathId`] order, which the searcher's
//! lists inherit — for every tag of the four datagen corpora, a tag no corpus
//! knows, and a wildcard.

use seda_core::ContextSpec;
use seda_datagen::Dataset;
use seda_xmlstore::{Collection, PathId};

/// The path-table walk: every path whose leaf name satisfies `matches`.
fn walk(collection: &Collection, matches: impl Fn(&str) -> bool) -> Vec<PathId> {
    collection
        .paths()
        .iter()
        .filter(|(_, path)| {
            path.leaf().is_some_and(|leaf| matches(collection.symbols().resolve(leaf)))
        })
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn tag_specs_allow_exactly_the_paths_the_walk_finds() {
    for dataset in Dataset::ALL {
        let collection = dataset.generate_small().expect("datagen");
        let mut tags: Vec<String> = collection
            .paths()
            .iter()
            .filter_map(|(_, path)| path.leaf())
            .map(|leaf| collection.symbols().resolve(leaf).to_string())
            .collect();
        tags.sort();
        tags.dedup();
        assert!(tags.len() > 5, "{}: {tags:?}", dataset.name());
        for tag in &tags {
            let allowed = ContextSpec::Tag(tag.clone()).allowed_paths(&collection);
            let expected = walk(&collection, |name| name == tag);
            assert!(!expected.is_empty());
            assert_eq!(allowed, Some(expected), "{}: ({tag}, *)", dataset.name());
        }
        // Unknown to the symbol table: restricted to nothing, not unrestricted.
        let unknown = ContextSpec::Tag("no_such_tag_anywhere".to_string());
        assert_eq!(unknown.allowed_paths(&collection), Some(Vec::new()));
        // Wildcards keep the string walk.
        let wildcard = ContextSpec::Tag("trade*".to_string()).allowed_paths(&collection);
        assert_eq!(wildcard, Some(walk(&collection, |name| name.starts_with("trade"))));
        if dataset == Dataset::WorldFactbook {
            assert!(wildcard.is_some_and(|paths| !paths.is_empty()), "trade_country is a tag");
        }
    }
}
