//! RecipeML-like corpus generator.
//!
//! Table 1 of the paper reports 10988 RecipeML documents collapsing to just 3
//! dataguides: the corpus is extremely regular, with three structural
//! variants.  The generator reproduces that: all documents are rooted at
//! `recipeml` and come in exactly three shapes (plain recipe, menu of recipes,
//! and nutrition-labelled recipe) that share too few paths to merge at the
//! paper's 40% threshold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seda_xmlstore::{Collection, DocumentBuilder, Result};

use crate::names;

/// Which of the three structural variants a document uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeShape {
    /// `recipeml/recipe/head + ingredients + directions`.
    Plain,
    /// `recipeml/menu/...` — a menu grouping several dishes.
    Menu,
    /// `recipeml/nutrition_label/...` — nutrition-first documents.
    Nutrition,
}

/// Configuration of the RecipeML-like generator.
#[derive(Debug, Clone)]
pub struct RecipeMlConfig {
    /// Number of recipe documents.
    pub recipes: usize,
    /// Fractions (out of 100) of documents using the Menu and Nutrition
    /// shapes; the rest are Plain.
    pub menu_percent: u8,
    /// See `menu_percent`.
    pub nutrition_percent: u8,
    /// RNG seed.
    pub seed: u64,
}

impl RecipeMlConfig {
    /// Paper-scale configuration: 10988 documents.
    pub fn paper() -> Self {
        RecipeMlConfig { recipes: 10_988, menu_percent: 8, nutrition_percent: 12, seed: 0x4EC1 }
    }

    /// Small configuration for tests.
    pub fn small() -> Self {
        RecipeMlConfig { recipes: 200, menu_percent: 10, nutrition_percent: 15, seed: 31 }
    }

    /// Number of documents this configuration will produce.
    pub fn document_count(&self) -> usize {
        self.recipes
    }

    /// Shape of the `i`-th document (deterministic).
    pub fn shape_of(&self, i: usize) -> RecipeShape {
        let bucket = (i * 37) % 100;
        if bucket < self.menu_percent as usize {
            RecipeShape::Menu
        } else if bucket < (self.menu_percent + self.nutrition_percent) as usize {
            RecipeShape::Nutrition
        } else {
            RecipeShape::Plain
        }
    }
}

impl Default for RecipeMlConfig {
    fn default() -> Self {
        RecipeMlConfig::paper()
    }
}

/// Generates a RecipeML-like collection.
pub fn generate(config: &RecipeMlConfig) -> Result<Collection> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut collection = Collection::new();
    for i in 0..config.recipes {
        let shape = config.shape_of(i);
        let uri = format!("recipeml/{i}.xml");
        collection.add_document(uri, |b| match shape {
            RecipeShape::Plain => build_plain(b, i, &mut rng),
            RecipeShape::Menu => build_menu(b, i, &mut rng),
            RecipeShape::Nutrition => build_nutrition(b, i, &mut rng),
        })?;
    }
    Ok(collection)
}

fn build_plain(b: &mut DocumentBuilder<'_>, i: usize, rng: &mut StdRng) -> Result<()> {
    b.start_element("recipeml")?;
    b.start_element("recipe")?;
    b.start_element("head")?;
    b.leaf("title", names::pick(names::RECIPES, i))?;
    b.start_element("categories")?;
    b.leaf("cat", ["main dish", "dessert", "appetizer", "soup"][i % 4])?;
    b.end_element()?;
    b.leaf("yield", &format!("{}", 2 + i % 8))?;
    b.end_element()?;
    b.start_element("ingredients")?;
    let n = 3 + i % 5;
    for j in 0..n {
        b.start_element("ing")?;
        b.start_element("amt")?;
        b.leaf("qty", &format!("{}", 1 + rng.gen_range(0..4)))?;
        b.leaf("unit", names::pick(names::UNITS, i + j))?;
        b.end_element()?;
        b.leaf("item", names::pick(names::INGREDIENTS, i * 3 + j))?;
        b.end_element()?;
    }
    b.end_element()?;
    b.start_element("directions")?;
    for s in 0..(2 + i % 4) {
        b.leaf("step", &format!("Step {}: combine and cook.", s + 1))?;
    }
    b.end_element()?;
    b.end_element()?;
    b.end_element()?;
    Ok(())
}

fn build_menu(b: &mut DocumentBuilder<'_>, i: usize, _rng: &mut StdRng) -> Result<()> {
    b.start_element("recipeml")?;
    b.start_element("menu")?;
    b.leaf("menu_title", &format!("Menu {}", i % 53))?;
    b.leaf("description", "A themed multi-course menu.")?;
    for j in 0..3usize {
        b.start_element("dish")?;
        b.leaf("dish_name", names::pick(names::RECIPES, i + j * 11))?;
        b.leaf("course", ["starter", "main", "dessert"][j])?;
        b.leaf("serves", &format!("{}", 2 + (i + j) % 6))?;
        b.end_element()?;
    }
    b.end_element()?;
    b.end_element()?;
    Ok(())
}

fn build_nutrition(b: &mut DocumentBuilder<'_>, i: usize, _rng: &mut StdRng) -> Result<()> {
    b.start_element("recipeml")?;
    b.start_element("nutrition_label")?;
    b.leaf("label_title", names::pick(names::RECIPES, i))?;
    b.leaf("serving_size", &format!("{} g", 100 + (i * 13) % 400))?;
    b.leaf("calories", &format!("{}", 80 + (i * 29) % 900))?;
    b.leaf("fat", &format!("{} g", (i * 7) % 60))?;
    b.leaf("carbohydrates", &format!("{} g", (i * 11) % 120))?;
    b.leaf("protein", &format!("{} g", (i * 5) % 70))?;
    b.leaf("sodium", &format!("{} mg", (i * 17) % 2400))?;
    b.end_element()?;
    b.end_element()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn document_count_matches_config() {
        let config = RecipeMlConfig::small();
        let c = generate(&config).unwrap();
        assert_eq!(c.len(), config.document_count());
    }

    #[test]
    fn paper_config_matches_table1() {
        assert_eq!(RecipeMlConfig::paper().document_count(), 10_988);
    }

    #[test]
    fn exactly_three_structural_shapes() {
        let c = generate(&RecipeMlConfig::small()).unwrap();
        let mut shapes: HashSet<Vec<_>> = HashSet::new();
        for doc in c.documents() {
            let mut paths = doc.distinct_paths();
            paths.sort_unstable();
            shapes.insert(paths);
        }
        // Plain documents differ only in how many ingredients/steps they have,
        // not in their path sets; so exactly three shapes exist.
        assert_eq!(shapes.len(), 3);
    }

    #[test]
    fn shape_assignment_covers_all_three() {
        let config = RecipeMlConfig::small();
        let mut seen = HashSet::new();
        for i in 0..config.recipes {
            seen.insert(format!("{:?}", config.shape_of(i)));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn shapes_share_only_the_root() {
        let config = RecipeMlConfig::small();
        let c = generate(&config).unwrap();
        // Find one doc of each shape and check pairwise overlap is low.
        let mut by_shape: Vec<Option<HashSet<_>>> = vec![None, None, None];
        for (i, doc) in c.documents().enumerate() {
            let slot = match config.shape_of(i) {
                RecipeShape::Plain => 0,
                RecipeShape::Menu => 1,
                RecipeShape::Nutrition => 2,
            };
            if by_shape[slot].is_none() {
                by_shape[slot] = Some(doc.distinct_paths().into_iter().collect());
            }
        }
        let sets: Vec<_> = by_shape.into_iter().flatten().collect();
        assert_eq!(sets.len(), 3);
        for a in 0..3 {
            for b in (a + 1)..3 {
                let common = sets[a].intersection(&sets[b]).count();
                let overlap = common as f64 / sets[a].len().min(sets[b].len()) as f64;
                assert!(overlap < 0.4, "shapes {a} and {b} overlap {overlap}");
            }
        }
    }
}
