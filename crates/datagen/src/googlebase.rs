//! Google-Base-like corpus generator.
//!
//! The paper's Table 1 uses a snapshot of 10000 Google Base items that
//! collapses to 88 dataguides at a 40% overlap threshold: the data is flat and
//! regular, with essentially one schema per product category.  The generator
//! reproduces that shape: every document is a flat `<item>` with a handful of
//! shared fields plus category-specific attribute fields, so documents of the
//! same category have identical path sets and documents of different
//! categories overlap below the merge threshold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seda_xmlstore::{Collection, Result};

use crate::names;

/// Configuration of the Google-Base-like generator.
#[derive(Debug, Clone)]
pub struct GoogleBaseConfig {
    /// Number of item documents.
    pub items: usize,
    /// Number of product categories (each category is one flat schema).
    pub categories: usize,
    /// Number of category-specific attribute fields per category.
    pub attributes_per_category: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GoogleBaseConfig {
    /// Paper-scale configuration: 10000 items across 88 categories.
    pub fn paper() -> Self {
        GoogleBaseConfig {
            items: 10_000,
            categories: 88,
            attributes_per_category: 10,
            seed: 0x6B05,
        }
    }

    /// Small configuration for tests: 300 items across 12 categories.
    pub fn small() -> Self {
        GoogleBaseConfig { items: 300, categories: 12, attributes_per_category: 10, seed: 23 }
    }

    /// Number of documents this configuration will produce.
    pub fn document_count(&self) -> usize {
        self.items
    }
}

impl Default for GoogleBaseConfig {
    fn default() -> Self {
        GoogleBaseConfig::paper()
    }
}

/// Generates a Google-Base-like collection.
pub fn generate(config: &GoogleBaseConfig) -> Result<Collection> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut collection = Collection::new();
    let categories = config.categories.min(names::PRODUCT_CATEGORIES.len()).max(1);

    for i in 0..config.items {
        let category_idx = i % categories;
        let category = names::PRODUCT_CATEGORIES[category_idx];
        let category_token = category.replace(' ', "_");
        let uri = format!("googlebase/{category_token}/{i}.xml");
        let price = 1.0 + rng.gen_range(0.0..2500.0);
        collection.add_document(uri, |b| {
            b.start_element("item")?;
            b.attribute("id", &format!("gb-{i:06}"))?;
            b.leaf("title", &format!("{} model {}", category, i % 997))?;
            b.leaf("category", category)?;
            b.leaf("price", &format!("{price:.2}"))?;
            b.leaf("condition", if i % 7 == 0 { "used" } else { "new" })?;
            // Category-specific attributes: names are prefixed with the
            // category so that different categories share few paths, exactly
            // like heterogeneous Google Base item types.
            for j in 0..config.attributes_per_category {
                let attr = names::PRODUCT_ATTRIBUTES[j % names::PRODUCT_ATTRIBUTES.len()];
                b.leaf(
                    &format!("{category_token}_{attr}"),
                    &format!("{}", (i * 31 + j * 7) % 10_000),
                )?;
            }
            b.end_element()?;
            Ok(())
        })?;
    }
    Ok(collection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn document_count_matches_config() {
        let config = GoogleBaseConfig::small();
        let c = generate(&config).unwrap();
        assert_eq!(c.len(), config.document_count());
    }

    #[test]
    fn paper_config_matches_table1() {
        let p = GoogleBaseConfig::paper();
        assert_eq!(p.document_count(), 10_000);
        assert_eq!(p.categories, 88);
    }

    #[test]
    fn one_distinct_path_set_per_category() {
        let config = GoogleBaseConfig::small();
        let c = generate(&config).unwrap();
        let mut shapes: HashSet<Vec<_>> = HashSet::new();
        for doc in c.documents() {
            shapes.insert(doc.distinct_paths());
        }
        assert_eq!(shapes.len(), config.categories, "one structural shape per category");
    }

    #[test]
    fn categories_share_only_the_common_fields() {
        let config = GoogleBaseConfig::small();
        let c = generate(&config).unwrap();
        let docs: Vec<_> = c.documents().take(2).collect();
        let a: HashSet<_> = docs[0].distinct_paths().into_iter().collect();
        let b: HashSet<_> = docs[1].distinct_paths().into_iter().collect();
        let common = a.intersection(&b).count();
        // /item, /item/id, title, category, price, condition = 6 shared paths.
        assert_eq!(common, 6);
        let overlap = common as f64 / a.len().max(b.len()) as f64;
        assert!(overlap < 0.6, "categories must not overlap heavily, got {overlap}");
    }

    #[test]
    fn items_are_flat() {
        let c = generate(&GoogleBaseConfig::small()).unwrap();
        for doc in c.documents().take(10) {
            for (_, node) in doc.iter() {
                let depth = c.paths().resolve(node.path).len();
                assert!(depth <= 2, "Google Base items are flat documents");
            }
        }
    }
}
