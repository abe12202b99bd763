//! # seda-datagen
//!
//! Synthetic XML corpus generators standing in for the four data sets the SEDA
//! paper evaluates on (Table 1 and the running World Factbook example):
//!
//! | Data set              | Paper documents | Generator |
//! |-----------------------|-----------------|-----------|
//! | World Factbook 2002-07| 1600            | [`factbook`] |
//! | Mondial               | 5563            | [`mondial`] |
//! | Google Base snapshot  | 10000           | [`googlebase`] |
//! | RecipeML              | 10988           | [`recipeml`] |
//!
//! The real corpora are not redistributable; the generators reproduce their
//! *structural* statistics (document counts, schema evolution, optional
//! elements, flat vs deep shapes, ID/IDREF links), which is what the paper's
//! dataguide, context-summary and cube experiments depend on.  Every generator
//! is deterministic given its configuration.
//!
//! ```
//! use seda_datagen::{factbook, FactbookConfig};
//! let collection = factbook::generate(&FactbookConfig::tiny()).unwrap();
//! let config = FactbookConfig::tiny();
//! assert_eq!(collection.len(), config.countries * config.years.len());
//! ```

pub mod factbook;
pub mod googlebase;
pub mod mondial;
pub mod names;
pub mod recipeml;

pub use factbook::FactbookConfig;
pub use googlebase::GoogleBaseConfig;
pub use mondial::MondialConfig;
pub use recipeml::RecipeMlConfig;

use seda_xmlstore::{Collection, Result};

/// Identifies one of the four paper data sets; used by the audit binary, the
/// examples and the tests to iterate over all of them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Google Base snapshot (flat, regular).
    GoogleBase,
    /// Mondial geography (many small documents, few shapes, IDREF links).
    Mondial,
    /// RecipeML (extremely regular, three shapes).
    RecipeMl,
    /// World Factbook 2002-2007 (heterogeneous, schema evolution, long tail).
    WorldFactbook,
}

impl Dataset {
    /// All four data sets in the order they appear in Table 1.
    pub const ALL: [Dataset; 4] =
        [Dataset::GoogleBase, Dataset::Mondial, Dataset::RecipeMl, Dataset::WorldFactbook];

    /// Human-readable name matching Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::GoogleBase => "Google Base snapshot",
            Dataset::Mondial => "Mondial",
            Dataset::RecipeMl => "RecipeML",
            Dataset::WorldFactbook => "World Factbook 2007",
        }
    }

    /// Number of documents the paper reports for this data set in Table 1.
    pub fn paper_document_count(self) -> usize {
        match self {
            Dataset::GoogleBase => 10_000,
            Dataset::Mondial => 5_563,
            Dataset::RecipeMl => 10_988,
            Dataset::WorldFactbook => 1_600,
        }
    }

    /// Number of dataguides the paper reports at the 40% overlap threshold.
    pub fn paper_dataguide_count(self) -> usize {
        match self {
            Dataset::GoogleBase => 88,
            Dataset::Mondial => 86,
            Dataset::RecipeMl => 3,
            Dataset::WorldFactbook => 500,
        }
    }

    /// Generates the data set at paper scale.
    pub fn generate_paper_scale(self) -> Result<Collection> {
        match self {
            Dataset::GoogleBase => googlebase::generate(&GoogleBaseConfig::paper()),
            Dataset::Mondial => mondial::generate(&MondialConfig::paper()),
            Dataset::RecipeMl => recipeml::generate(&RecipeMlConfig::paper()),
            Dataset::WorldFactbook => factbook::generate(&FactbookConfig::paper()),
        }
    }

    /// Generates the data set at `scale` times its paper size (`1.0` reproduces
    /// the Table 1 document counts).  `scale` is a fraction in `(0, 1]` —
    /// callers reading it from outside the program validate that; small
    /// fractions are floored so every corpus keeps enough documents to show
    /// its shapes.
    pub fn generate_scaled(self, scale: f64) -> Result<Collection> {
        let scaled = |paper: usize, floor: usize| ((paper as f64 * scale) as usize).max(floor);
        match self {
            Dataset::GoogleBase => {
                let mut config = GoogleBaseConfig::paper();
                config.items = scaled(config.items, 100);
                googlebase::generate(&config)
            }
            Dataset::Mondial => {
                let mut config = MondialConfig::paper();
                config.countries = scaled(config.countries, 10);
                config.provinces = scaled(config.provinces, 10);
                config.cities = scaled(config.cities, 20);
                config.seas = scaled(config.seas, 4);
                config.rivers = scaled(config.rivers, 4);
                config.organizations = scaled(config.organizations, 3);
                config.features = scaled(config.features, 4);
                mondial::generate(&config)
            }
            Dataset::RecipeMl => {
                let mut config = RecipeMlConfig::paper();
                config.recipes = scaled(config.recipes, 100);
                recipeml::generate(&config)
            }
            Dataset::WorldFactbook => {
                let years = if scale >= 0.5 { 6 } else { 3 };
                factbook::generate(&FactbookConfig::paper_scaled(scaled(267, 12), years))
            }
        }
    }

    /// Generates a small version of the data set suitable for tests.
    pub fn generate_small(self) -> Result<Collection> {
        match self {
            Dataset::GoogleBase => googlebase::generate(&GoogleBaseConfig::small()),
            Dataset::Mondial => mondial::generate(&MondialConfig::small()),
            Dataset::RecipeMl => recipeml::generate(&RecipeMlConfig::small()),
            Dataset::WorldFactbook => factbook::generate(&FactbookConfig::small()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_document_counts_match_table1() {
        assert_eq!(Dataset::GoogleBase.paper_document_count(), 10_000);
        assert_eq!(Dataset::Mondial.paper_document_count(), 5_563);
        assert_eq!(Dataset::RecipeMl.paper_document_count(), 10_988);
        assert_eq!(Dataset::WorldFactbook.paper_document_count(), 1_600);
    }

    #[test]
    fn scaled_generation_hits_the_paper_counts_at_one_and_the_floors_at_a_hundredth() {
        let counts = |scale: f64| Dataset::ALL.map(|ds| ds.generate_scaled(scale).unwrap().len());
        // Google Base, Mondial, RecipeML, Factbook (267 countries x 6 years).
        assert_eq!(counts(1.0), [10_000, 5_563, 10_988, 1_602]);
        // Mondial: 10 + 14 + 31 + 4 + 4 + 3 + 5; Factbook: 12 countries x 3 years.
        assert_eq!(counts(0.01), [100, 71, 109, 36]);
    }

    #[test]
    fn small_generators_all_work() {
        for ds in Dataset::ALL {
            let c = ds.generate_small().unwrap();
            assert!(!c.is_empty(), "{} produced an empty collection", ds.name());
            assert!(c.distinct_path_count() > 1);
        }
    }

    #[test]
    fn dataset_names_are_stable() {
        let names: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec!["Google Base snapshot", "Mondial", "RecipeML", "World Factbook 2007"]
        );
    }
}
