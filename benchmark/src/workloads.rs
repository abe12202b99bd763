//! The four workloads: which corpus each generates, how the engine is built
//! over it, and the request text sent to it.
//!
//! Everything here is a function of the run seed: the corpus (through the
//! generators' `seed` fields) and the request list (through the benchmark's
//! own sampler).  Query literals are drawn from the `seda_datagen::names`
//! pools, restricted to the values the generated corpus contains.

use seda_datagen::{
    factbook, googlebase, mondial, names, recipeml, FactbookConfig, GoogleBaseConfig,
    MondialConfig, RecipeMlConfig,
};
use seda_xmlstore::Collection;

use crate::rng::Rng;

/// Distinct selective explore queries, their literals drawn with the seed.
pub const SELECTIVE: usize = 20;
/// Share of the explore rounds that use the workload's broad query: one in
/// ten.  The two classes are sampled separately and weighted by their share
/// (`measure::Timed::explore_mix`), so the 95th percentile of the mix is the
/// broad round wherever that is the dearest.
pub const BROAD_SHARE: f64 = 0.1;
/// Distinct analyze rounds.
pub const ANALYZE: usize = 6;

const IMPORT_COUNTRY: &str = "/country/economy/import_partners/item/trade_country";
const IMPORT_PERCENTAGE: &str = "/country/economy/import_partners/item/percentage";

/// Corpus size: the paper's Table 1 sizes, or a tenth of them for smoke runs
/// (`--quick`), whose numbers are not comparable with anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table 1 document counts.
    Paper,
    /// A tenth of the Table 1 document counts.
    Quick,
}

impl Scale {
    fn of(self, paper: usize) -> usize {
        match self {
            Scale::Paper => paper,
            Scale::Quick => (paper / 10).max(3),
        }
    }
}

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// World Factbook, 267 countries × 6 years; all six statements.
    FactbookOlap,
    /// Mondial, 5,563 small documents webbed by IDREF edges.
    MondialLinks,
    /// Google Base, 10,000 flat documents.
    GooglebaseFlat,
    /// RecipeML, 10,988 deep regular documents, built on two threads.
    RecipemlIngest,
}

/// One explore query: the `FOR` clause shared by the round's three statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Query terms, e.g. `(name, "France") AND (population, *)`.
    pub text: String,
    /// True when a best-effort answer (`candidates_truncated > 0`) is the
    /// expected behaviour; anywhere else the checker counts it as a failure.
    pub may_truncate: bool,
}

impl Query {
    /// The three statements the UI issues when this query is submitted.
    pub fn explore_round(&self) -> [String; 3] {
        [
            format!("TOPK 10 FOR {}", self.text),
            format!("CONTEXTS FOR {}", self.text),
            format!("CONNECTIONS 10 FOR {}", self.text),
        ]
    }
}

/// The request text of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requests {
    /// [`SELECTIVE`] selective explore queries.
    pub selective: Vec<Query>,
    /// The workload's broad query: a term that matches most documents.
    pub broad: Query,
    /// [`ANALYZE`] analyze rounds, each a list of statements.
    pub analyze: Vec<Vec<String>>,
}

impl Requests {
    /// Every distinct request of the run, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for query in self.selective.iter().chain([&self.broad]) {
            for statement in query.explore_round() {
                out.push_str(&statement);
                out.push('\n');
            }
        }
        for statement in self.analyze.iter().flatten() {
            out.push_str(statement);
            out.push('\n');
        }
        out
    }
}

impl Workload {
    /// All four workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FactbookOlap,
        Workload::MondialLinks,
        Workload::GooglebaseFlat,
        Workload::RecipemlIngest,
    ];

    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FactbookOlap => "factbook-olap",
            Workload::MondialLinks => "mondial-links",
            Workload::GooglebaseFlat => "googlebase-flat",
            Workload::RecipemlIngest => "recipeml-ingest",
        }
    }

    /// `EngineConfig::parallelism` of the engine build.  Only
    /// `recipeml-ingest` takes the shard→merge build path every substrate
    /// also has; the machine has two cores.
    pub fn parallelism(self) -> usize {
        match self {
            Workload::RecipemlIngest => 2,
            _ => 1,
        }
    }

    /// Generates the corpus for `seed`.  The collection is only ever
    /// serialised to XML text; the program never sees it.
    pub fn generate(self, seed: u64, scale: Scale) -> Collection {
        // Each generator gets its own stream of the run seed.
        let seed = Rng::new(seed, self as u64 + 1).next_u64();
        let generated = match self {
            Workload::FactbookOlap => {
                let config = match scale {
                    Scale::Paper => FactbookConfig::paper(),
                    Scale::Quick => FactbookConfig::paper_scaled(scale.of(267), 6),
                };
                factbook::generate(&FactbookConfig { seed, ..config })
            }
            Workload::MondialLinks => {
                let paper = MondialConfig::paper();
                mondial::generate(&MondialConfig {
                    countries: scale.of(paper.countries),
                    provinces: scale.of(paper.provinces),
                    cities: scale.of(paper.cities),
                    seas: scale.of(paper.seas),
                    rivers: scale.of(paper.rivers),
                    organizations: scale.of(paper.organizations),
                    features: scale.of(paper.features),
                    seed,
                })
            }
            Workload::GooglebaseFlat => {
                let paper = GoogleBaseConfig::paper();
                googlebase::generate(&GoogleBaseConfig {
                    items: scale.of(paper.items),
                    seed,
                    ..paper
                })
            }
            Workload::RecipemlIngest => {
                let paper = RecipeMlConfig::paper();
                recipeml::generate(&RecipeMlConfig {
                    recipes: scale.of(paper.recipes),
                    seed,
                    ..paper
                })
            }
        };
        generated.expect("invariant: the generators only fail on malformed builder calls")
    }

    /// The request list for `seed`.
    pub fn requests(self, seed: u64, scale: Scale) -> Requests {
        let mut rng = Rng::new(seed, 0x5EDA + self as u64);
        match self {
            Workload::FactbookOlap => factbook_requests(&mut rng, scale),
            Workload::MondialLinks => mondial_requests(&mut rng, scale),
            Workload::GooglebaseFlat => googlebase_requests(&mut rng),
            Workload::RecipemlIngest => recipeml_requests(&mut rng),
        }
    }
}

/// A seeded pass over a literal pool: a shuffled copy handed out cyclically,
/// so a run uses as many distinct literals as the pool has before repeating.
struct Pool<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Clone> Pool<T> {
    fn new(mut items: Vec<T>, rng: &mut Rng) -> Self {
        rng.shuffle(&mut items);
        Pool { items, next: 0 }
    }

    fn draw(&mut self) -> T {
        let item = self.items[self.next % self.items.len()].clone();
        self.next += 1;
        item
    }
}

/// [`SELECTIVE`] selective queries, none of which may truncate.
fn selective_list(mut draw: impl FnMut() -> String) -> Vec<Query> {
    (0..SELECTIVE).map(|_| Query { text: draw(), may_truncate: false }).collect()
}

fn broad_query(text: &str, may_truncate: bool) -> Query {
    Query { text: text.to_string(), may_truncate }
}

/// Lower-cased alphanumeric runs, as the program's tokenizer splits names.
fn words(name: &str) -> Vec<String> {
    name.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// The names of `pool` that no other name of the pool contains as a phrase
/// ("Guinea" is dropped beside "Papua New Guinea").  A phrase query for an
/// ambiguous name matches several countries' worth of nodes — on Mondial
/// enough to clip the candidate set — and selective queries are meant to be
/// selective.
fn unambiguous<'a>(pool: &[&'a str]) -> Vec<&'a str> {
    let tokenised: Vec<Vec<String>> = pool.iter().map(|name| words(name)).collect();
    let contains = |outer: &[String], inner: &[String]| {
        outer.len() > inner.len() && outer.windows(inner.len()).any(|w| w == inner)
    };
    pool.iter()
        .zip(&tokenised)
        .filter(|(_, name)| !tokenised.iter().any(|other| contains(other, name)))
        .map(|(&name, _)| name)
        .collect()
}

fn factbook_requests(rng: &mut Rng, scale: Scale) -> Requests {
    let countries = unambiguous(&names::COUNTRIES[..scale.of(267)]);
    let query1 =
        |country: &str| format!("(*, \"{country}\") AND (trade_country, *) AND (percentage, *)");
    let mut explore_pool = Pool::new(countries.clone(), rng);
    let selective = selective_list(|| query1(explore_pool.draw()));
    let broad = broad_query("(trade_country, *) AND (percentage, *)", false);
    let mut analyze_pool = Pool::new(countries, rng);
    let analyze = (0..ANALYZE)
        .map(|_| {
            vec![
                format!(
                    "RESULTS FOR {} WITH 0 IN /country/name WITH 1 IN {IMPORT_COUNTRY} \
                     WITH 2 IN {IMPORT_PERCENTAGE}",
                    query1(analyze_pool.draw())
                ),
                format!(
                    "CUBE import-trade-percentage BY import-country AGG sum \
                     FOR (trade_country, *) AND (percentage, *) \
                     WITH 0 IN {IMPORT_COUNTRY} WITH 1 IN {IMPORT_PERCENTAGE}"
                ),
                "TWIG /country/economy//trade_country".to_string(),
            ]
        })
        .collect();
    Requests { selective, broad, analyze }
}

/// The `CUBE` statement whose cells must reproduce
/// `seda_datagen::factbook::US_IMPORT_PARTNERS` (Fig. 3 of the paper).
pub fn us_import_cube() -> String {
    format!(
        "CUBE import-trade-percentage BY country, year, import-country AGG sum \
         FOR (*, \"United States\") AND (trade_country, *) AND (percentage, *) \
         WITH 0 IN /country/name WITH 1 IN {IMPORT_COUNTRY} WITH 2 IN {IMPORT_PERCENTAGE}"
    )
}

fn mondial_requests(rng: &mut Rng, scale: Scale) -> Requests {
    let countries = unambiguous(&names::COUNTRIES[..scale.of(MondialConfig::paper().countries)]);
    let mut pool = Pool::new(countries, rng);
    let selective = selective_list(|| format!("(name, \"{}\") AND (population, *)", pool.draw()));
    // The broad query clips its candidate set at `candidate_limit`.
    let broad = broad_query("(name, *) AND (population, *)", true);
    let cross_root = "RESULTS FOR (name, *) AND (name, *) \
                      WITH 0 IN /country/name WITH 1 IN /organization/name";
    let analyze = (0..ANALYZE).map(|_| vec![cross_root.to_string()]).collect();
    Requests { selective, broad, analyze }
}

fn googlebase_requests(rng: &mut Rng) -> Requests {
    let categories = GoogleBaseConfig::paper().categories;
    // Every category with `new`, every third also with `used`: six items in
    // seven are new, and a `used` query costs half a `new` one, so an even
    // split would put the median round on the edge between the two classes.
    let literals: Vec<(&str, &str)> = names::PRODUCT_CATEGORIES[..categories]
        .iter()
        .enumerate()
        .flat_map(|(i, &category)| {
            let used = (i % 3 == 0).then_some((category, "used"));
            std::iter::once((category, "new")).chain(used)
        })
        .collect();
    let query = |(category, condition): (&str, &str)| {
        format!("(title, \"{category}\") AND (price, *) AND (condition, {condition})")
    };
    let mut explore_pool = Pool::new(literals.clone(), rng);
    let selective = selective_list(|| query(explore_pool.draw()));
    // Every title holds the word "model".
    let broad = broad_query("(title, model) AND (price, *) AND (condition, new)", false);
    let mut analyze_pool = Pool::new(literals, rng);
    let analyze = (0..ANALYZE)
        .map(|_| {
            let literal = analyze_pool.draw();
            vec![
                format!("TOPK 10 FOR (title, \"{}\")", literal.0),
                format!("TOPK 1 FOR {}", query(literal)),
                format!("TOPK 100 FOR {}", query(literal)),
            ]
        })
        .collect();
    Requests { selective, broad, analyze }
}

fn recipeml_requests(rng: &mut Rng) -> Requests {
    let query = |ingredient: &str| format!("(title, *) AND (item, \"{ingredient}\")");
    let mut ingredient_pool = Pool::new(names::INGREDIENTS.to_vec(), rng);
    let selective = selective_list(|| query(ingredient_pool.draw()));
    let broad =
        broad_query(&format!("(title, \"{}\") AND (item, *)", commonest_dish_word()), false);
    let mut analyze_pool = Pool::new(names::INGREDIENTS.to_vec(), rng);
    let analyze = (0..ANALYZE)
        .map(|_| {
            vec![
                "TWIG /recipeml/recipe//item".to_string(),
                format!("RESULTS FOR {}", query(analyze_pool.draw())),
            ]
        })
        .collect();
    Requests { selective, broad, analyze }
}

/// The word most recipe titles of the pool share (the first in the alphabet
/// among equals): the title term of the broad query, against the whole item
/// list.  A dish word drawn with the seed would make the broad round cost a
/// third more or less from one seed to the next, by how many titles hold it.
fn commonest_dish_word() -> &'static str {
    let mut words: Vec<&str> = names::RECIPES.iter().flat_map(|title| title.split(' ')).collect();
    words.sort_unstable();
    let count = |word: &str| words.iter().filter(|w| **w == word).count();
    words.iter().copied().max_by_key(|word| (count(word), std::cmp::Reverse(*word))).unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::by_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn request_lists_have_their_sizes_and_only_the_mondial_broad_query_may_truncate() {
        for workload in Workload::ALL {
            let requests = workload.requests(1, Scale::Paper);
            assert_eq!(requests.selective.len(), SELECTIVE);
            assert_eq!(requests.analyze.len(), ANALYZE);
            let mut distinct: Vec<&str> =
                requests.selective.iter().map(|q| q.text.as_str()).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), SELECTIVE, "{}", workload.name());
            assert!(requests.selective.iter().all(|q| !q.may_truncate));
            assert_eq!(requests.broad.may_truncate, workload == Workload::MondialLinks);
        }
    }

    #[test]
    fn the_recipeml_broad_query_uses_the_commonest_dish_word() {
        assert_eq!(commonest_dish_word(), "Chicken");
    }

    #[test]
    fn ambiguous_names_are_dropped_from_literal_pools() {
        let pool = ["Guinea", "Papua New Guinea", "Guinea-Bissau", "Niger", "Nigeria", "Samoa"];
        assert_eq!(
            unambiguous(&pool),
            vec!["Papua New Guinea", "Guinea-Bissau", "Niger", "Nigeria", "Samoa"]
        );
        let countries = unambiguous(&names::COUNTRIES[..240]);
        assert!(countries.len() > 200, "{}", countries.len());
        assert!(countries.contains(&"United States"));
    }

    #[test]
    fn quick_corpora_are_a_tenth_of_paper_scale() {
        assert_eq!(Workload::FactbookOlap.generate(1, Scale::Quick).len(), 26 * 6);
        assert_eq!(Workload::GooglebaseFlat.generate(1, Scale::Quick).len(), 1_000);
        assert_eq!(Workload::RecipemlIngest.generate(1, Scale::Quick).len(), 1_098);
        let mondial = Workload::MondialLinks.generate(1, Scale::Quick).len();
        assert!((550..=560).contains(&mondial), "{mondial}");
    }
}
