//! World-Factbook-like corpus generator.
//!
//! The paper's running example combines six annual releases of the CIA World
//! Factbook (2002–2007) with the Mondial data set.  The real Factbook is not
//! redistributable, so this generator produces a corpus with the same
//! *structural* properties the paper relies on:
//!
//! * one document per (country, year) — 267 countries × 6 years ≈ 1600
//!   documents at paper scale,
//! * schema evolution across years (documents before 2005 report `GDP`,
//!   later documents report `GDP_ppp`; `literacy`, `internet_hosts`, … appear
//!   only in later years),
//! * many optional sections and elements, producing a long tail of rare
//!   root-to-leaf paths (the paper reports 1984 distinct paths, `/country` in
//!   1577 of 1600 documents, and a refugees path in only 186 documents),
//! * country names appearing in many different contexts (the paper reports 27
//!   distinct paths matching the content "United States"),
//! * the exact import-partner facts of Figure 1/3 for the United States in
//!   2004–2006, so the worked Query 1 example reproduces verbatim.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seda_xmlstore::{Collection, DocumentBuilder, Result};

use crate::names;

/// Configuration of the Factbook-like generator.
#[derive(Debug, Clone)]
pub struct FactbookConfig {
    /// Number of countries/territories (one document per country per year).
    pub countries: usize,
    /// Years covered; the schema evolves across them.
    pub years: Vec<u16>,
    /// RNG seed; the corpus is fully determined by the configuration.
    pub seed: u64,
    /// Size of the pool of rare "indicator" fields that create the long tail
    /// of distinct paths.
    pub rare_field_pool: usize,
    /// Fraction of documents rooted at `territory` instead of `country`
    /// (models the handful of Factbook entries that are not countries; this is
    /// why `/country` occurs in 1577 of 1600 documents rather than all).
    pub territory_fraction: f64,
    /// Probability scale for optional sections (1.0 = paper-like).
    pub optional_scale: f64,
}

impl FactbookConfig {
    /// Paper-scale configuration: ~1600 documents over 2002–2007.
    pub fn paper() -> Self {
        FactbookConfig {
            countries: 267,
            years: vec![2002, 2003, 2004, 2005, 2006, 2007],
            seed: 0x5EDA_2009,
            rare_field_pool: 1900,
            territory_fraction: 0.015,
            optional_scale: 1.0,
        }
    }

    /// Small configuration for unit/integration tests: ~90 documents.
    pub fn small() -> Self {
        FactbookConfig {
            countries: 30,
            years: vec![2004, 2005, 2006],
            seed: 7,
            rare_field_pool: 120,
            territory_fraction: 0.02,
            optional_scale: 1.0,
        }
    }

    /// Tiny configuration for doc-tests and micro benches: ~12 documents.
    pub fn tiny() -> Self {
        FactbookConfig {
            countries: 6,
            years: vec![2005, 2006],
            seed: 3,
            rare_field_pool: 20,
            territory_fraction: 0.0,
            optional_scale: 1.0,
        }
    }
}

impl Default for FactbookConfig {
    fn default() -> Self {
        FactbookConfig::paper()
    }
}

/// The import-partner facts of Figure 3(c) for the United States, used
/// verbatim so Query 1 reproduces the paper's fact table.
pub const US_IMPORT_PARTNERS: &[(u16, &str, &str)] = &[
    (2004, "China", "12.5"),
    (2004, "Mexico", "10.7"),
    (2005, "China", "13.8"),
    (2005, "Mexico", "10.3"),
    (2006, "China", "15"),
    (2006, "Canada", "16.9"),
];

/// Export partner used in Figure 2(b): Mexico exports 70.6% to the United
/// States (2003), plus the Figure 1 US export to Canada.
const FIXED_EXPORT_PARTNERS: &[(&str, u16, &str, &str)] = &[
    ("Mexico", 2003, "United States", "70.6"),
    ("Mexico", 2005, "United States", "82.2"),
    ("United States", 2006, "Canada", "23.4"),
];

/// Generates a Factbook-like collection.
pub fn generate(config: &FactbookConfig) -> Result<Collection> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut collection = Collection::new();
    let n_countries = config.countries.min(names::COUNTRIES.len());

    let mut doc_index = 0usize;
    for year in &config.years {
        for country_idx in 0..n_countries {
            let country = names::COUNTRIES[country_idx];
            let is_territory = country != "United States"
                && rng.gen_bool(config.territory_fraction.clamp(0.0, 1.0));
            let uri = format!("factbook/{year}/{}.xml", country.replace(' ', "_").to_lowercase());
            let params =
                DocParams { country, country_idx, year: *year, is_territory, doc_index, config };
            collection.add_document(uri, |b| build_country_doc(b, &params, &mut rng))?;
            doc_index += 1;
        }
    }
    Ok(collection)
}

struct DocParams<'a> {
    country: &'a str,
    country_idx: usize,
    year: u16,
    is_territory: bool,
    doc_index: usize,
    config: &'a FactbookConfig,
}

fn opt(rng: &mut StdRng, probability: f64, scale: f64) -> bool {
    rng.gen_bool((probability * scale).clamp(0.0, 1.0))
}

fn build_country_doc(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
) -> Result<()> {
    let scale = p.config.optional_scale;
    let root = if p.is_territory { "territory" } else { "country" };
    b.start_element(root)?;
    b.attribute("id", &format!("{}-{}", p.country.replace(' ', "_").to_lowercase(), p.year))?;
    b.leaf("name", p.country)?;
    b.leaf("year", &p.year.to_string())?;

    build_geography(b, p, rng, scale)?;
    build_people(b, p, rng, scale)?;
    build_economy(b, p, rng, scale)?;
    build_government(b, p, rng, scale)?;
    if p.year >= 2003 && opt(rng, 0.7, scale) {
        build_communications(b, p, rng, scale)?;
    }
    if opt(rng, 0.35, scale) {
        build_transnational_issues(b, p, rng, scale)?;
    }
    build_rare_fields(b, p)?;

    b.end_element()?;
    Ok(())
}

fn build_geography(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
) -> Result<()> {
    b.start_element("geography")?;
    b.leaf("location", names::pick(names::REGIONS, p.country_idx))?;
    b.start_element("area")?;
    let total = 1000 + (p.country_idx as u64 * 9371) % 9_000_000;
    b.leaf("total", &total.to_string())?;
    b.leaf("land", &((total as f64 * 0.93) as u64).to_string())?;
    if opt(rng, 0.8, scale) {
        b.leaf("water", &((total as f64 * 0.07) as u64).to_string())?;
    }
    b.end_element()?;
    if opt(rng, 0.85, scale) {
        b.leaf("climate", names::pick(names::CLIMATES, p.country_idx + p.year as usize))?;
    }
    if opt(rng, 0.8, scale) {
        b.leaf("terrain", names::pick(names::TERRAINS, p.country_idx * 3))?;
    }
    if opt(rng, 0.7, scale) {
        b.start_element("natural_resources")?;
        for i in 0..(1 + p.country_idx % 4) {
            b.leaf("resource", names::pick(names::RESOURCES, p.country_idx + i))?;
        }
        b.end_element()?;
    }
    if opt(rng, 0.75, scale) {
        b.start_element("neighbors")?;
        let n = 1 + p.country_idx % 5;
        for i in 1..=n {
            b.leaf("neighbor", names::pick(names::COUNTRIES, p.country_idx + i * 17))?;
        }
        b.end_element()?;
    }
    if p.year >= 2004 && opt(rng, 0.6, scale) {
        b.leaf("coastline", &format!("{} km", (p.country_idx * 137) % 20_000))?;
    }
    if p.year >= 2006 && opt(rng, 0.4, scale) {
        b.start_element("elevation")?;
        b.leaf("highest_point", &format!("{} m", 200 + (p.country_idx * 53) % 8000))?;
        b.leaf("lowest_point", "0 m")?;
        b.end_element()?;
    }
    b.end_element()?;
    Ok(())
}

fn build_people(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
) -> Result<()> {
    b.start_element("people")?;
    let population = 50_000
        + (p.country_idx as u64 * 4_816_031) % 1_300_000_000
        + (p.year as u64 - 2000) * 120_000;
    b.leaf("population", &population.to_string())?;
    if opt(rng, 0.8, scale) {
        b.leaf("life_expectancy", &format!("{:.1}", 55.0 + (p.country_idx % 30) as f64))?;
    }
    if opt(rng, 0.75, scale) {
        b.start_element("languages")?;
        for i in 0..(1 + p.country_idx % 3) {
            b.leaf("language", names::pick(names::LANGUAGES, p.country_idx + i * 7))?;
        }
        b.end_element()?;
    }
    if opt(rng, 0.6, scale) {
        b.start_element("religions")?;
        for i in 0..(1 + p.country_idx % 2) {
            b.leaf("religion", names::pick(names::RELIGIONS, p.country_idx + i * 3))?;
        }
        b.end_element()?;
    }
    if opt(rng, 0.5, scale) {
        b.start_element("age_structure")?;
        b.leaf("under_15", &format!("{}%", 15 + p.country_idx % 25))?;
        b.leaf("working_age", &format!("{}%", 55 + p.country_idx % 12))?;
        b.leaf("over_65", &format!("{}%", 4 + p.country_idx % 20))?;
        b.end_element()?;
    }
    // Schema evolution: literacy reported from 2005 onwards.
    if p.year >= 2005 && opt(rng, 0.7, scale) {
        b.leaf("literacy", &format!("{}%", 60 + p.country_idx % 40))?;
    }
    if p.year >= 2006 && opt(rng, 0.35, scale) {
        b.start_element("migration")?;
        b.leaf("net_migration_rate", &format!("{:.1}", (p.country_idx % 10) as f64 - 3.0))?;
        b.leaf("destination_country", names::pick(names::COUNTRIES, p.country_idx * 31 + 1))?;
        b.end_element()?;
    }
    b.end_element()?;
    Ok(())
}

fn fixed_us_gdp(year: u16) -> Option<&'static str> {
    // Figure 2(a): the 2002 US document reports GDP 10.082T; Figure 1 shows
    // GDP_ppp 12.31T for 2006.
    match year {
        2002 => Some("10.082T"),
        2006 => Some("12.31T"),
        _ => None,
    }
}

fn build_economy(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
) -> Result<()> {
    b.start_element("economy")?;
    // Schema evolution (Sec. 7): documents created before 2005 use `GDP`,
    // documents from 2005 onwards use `GDP_ppp`.
    let gdp_value = fixed_us_gdp(p.year)
        .filter(|_| p.country == "United States")
        .map(str::to_string)
        .unwrap_or_else(|| {
            let billions =
                1.0 + (p.country_idx as f64 * 37.3) % 12_000.0 + (p.year as f64 - 2002.0) * 13.0;
            if billions >= 1000.0 {
                format!("{:.3}T", billions / 1000.0)
            } else {
                format!("{:.1}B", billions)
            }
        });
    if p.year < 2005 {
        b.leaf("GDP", &gdp_value)?;
    } else {
        b.leaf("GDP_ppp", &gdp_value)?;
    }
    if opt(rng, 0.75, scale) {
        b.leaf("GDP_growth", &format!("{:.1}%", (p.country_idx % 90) as f64 / 10.0 - 1.0))?;
    }
    if opt(rng, 0.6, scale) {
        b.leaf("GDP_per_capita", &format!("{}", 500 + (p.country_idx * 311) % 60_000))?;
    }
    if opt(rng, 0.65, scale) {
        b.leaf("inflation", &format!("{:.1}%", (p.country_idx % 120) as f64 / 10.0))?;
    }
    if opt(rng, 0.5, scale) {
        b.leaf("labor_force", &format!("{}", 10_000 + (p.country_idx * 77_321) % 700_000_000))?;
    }
    if p.year >= 2004 && opt(rng, 0.45, scale) {
        b.leaf("unemployment", &format!("{:.1}%", (p.country_idx % 200) as f64 / 10.0))?;
    }
    if opt(rng, 0.55, scale) {
        b.start_element("industries")?;
        for i in 0..(1 + p.country_idx % 4) {
            b.leaf("industry", names::pick(names::INDUSTRIES, p.country_idx + i * 5))?;
        }
        b.end_element()?;
    }

    build_trade_partners(b, p, rng, scale, "import_partners")?;
    build_trade_partners(b, p, rng, scale, "export_partners")?;

    if opt(rng, 0.5, scale) {
        b.start_element("exports")?;
        b.leaf("value", &format!("{:.1}B", (p.country_idx as f64 * 5.3) % 900.0))?;
        b.start_element("commodities")?;
        for i in 0..(1 + p.country_idx % 3) {
            b.leaf("commodity", names::pick(names::COMMODITIES, p.country_idx + i * 11))?;
        }
        b.end_element()?;
        b.end_element()?;
    }
    if opt(rng, 0.5, scale) {
        b.start_element("imports")?;
        b.leaf("value", &format!("{:.1}B", (p.country_idx as f64 * 4.1) % 800.0))?;
        b.start_element("commodities")?;
        for i in 0..(1 + p.country_idx % 3) {
            b.leaf("commodity", names::pick(names::COMMODITIES, p.country_idx * 2 + i * 13))?;
        }
        b.end_element()?;
        b.end_element()?;
    }
    if opt(rng, 0.6, scale) {
        b.leaf("currency", &format!("{} unit", names::pick(names::COUNTRIES, p.country_idx)))?;
    }
    if p.year >= 2005 && opt(rng, 0.3, scale) {
        b.start_element("aid")?;
        b.leaf("donor", names::pick(names::COUNTRIES, p.country_idx * 13 + 2))?;
        b.leaf("amount", &format!("{:.1}M", (p.country_idx as f64 * 1.7) % 500.0))?;
        b.end_element()?;
    }
    b.end_element()?;
    Ok(())
}

fn build_trade_partners(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
    section: &str,
) -> Result<()> {
    // Fixed facts for the worked example (Figures 1, 2 and 3 of the paper).
    let mut fixed: Vec<(&str, &str)> = Vec::new();
    if section == "import_partners" && p.country == "United States" {
        for &(year, partner, pct) in US_IMPORT_PARTNERS {
            if year == p.year {
                fixed.push((partner, pct));
            }
        }
    }
    if section == "export_partners" {
        for &(country, year, partner, pct) in FIXED_EXPORT_PARTNERS {
            if country == p.country && year == p.year {
                fixed.push((partner, pct));
            }
        }
    }

    let include_random = opt(rng, 0.8, scale);
    if fixed.is_empty() && !include_random {
        return Ok(());
    }
    b.start_element(section)?;
    for (partner, pct) in &fixed {
        b.start_element("item")?;
        b.leaf("trade_country", partner)?;
        b.leaf("percentage", pct)?;
        b.end_element()?;
    }
    if include_random {
        let n = 1 + rng.gen_range(0..4usize);
        for i in 0..n {
            let partner_idx = (p.country_idx + i * 29 + p.year as usize) % names::COUNTRIES.len();
            let partner = names::COUNTRIES[partner_idx];
            if partner == p.country || fixed.iter().any(|(f, _)| *f == partner) {
                continue;
            }
            b.start_element("item")?;
            b.leaf("trade_country", partner)?;
            b.leaf("percentage", &format!("{:.1}", 2.0 + rng.gen_range(0.0..25.0)))?;
            b.end_element()?;
        }
    }
    b.end_element()?;
    Ok(())
}

fn build_government(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
) -> Result<()> {
    b.start_element("government")?;
    b.leaf("capital", &format!("{} City", p.country))?;
    if opt(rng, 0.7, scale) {
        b.leaf(
            "government_type",
            ["republic", "monarchy", "federation", "parliamentary democracy"][p.country_idx % 4],
        )?;
    }
    if opt(rng, 0.5, scale) {
        b.leaf("independence", &format!("{}", 1700 + (p.country_idx * 7) % 300))?;
    }
    if opt(rng, 0.4, scale) {
        b.leaf("constitution", &format!("adopted {}", 1800 + (p.country_idx * 3) % 220))?;
    }
    if p.year >= 2004 && opt(rng, 0.45, scale) {
        b.start_element("diplomatic_representation")?;
        b.leaf("from_country", names::pick(names::COUNTRIES, p.country_idx * 19 + 3))?;
        b.leaf("ambassador", &format!("Ambassador {}", p.country_idx))?;
        b.end_element()?;
    }
    b.end_element()?;
    Ok(())
}

fn build_communications(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
) -> Result<()> {
    b.start_element("communications")?;
    if opt(rng, 0.8, scale) {
        b.leaf("telephones", &format!("{}", 1000 + (p.country_idx * 53_123) % 300_000_000))?;
    }
    if opt(rng, 0.7, scale) {
        b.leaf("internet_users", &format!("{}", 500 + (p.country_idx * 91_001) % 200_000_000))?;
    }
    if p.year >= 2005 && opt(rng, 0.5, scale) {
        b.leaf("internet_hosts", &format!("{}", 10 + (p.country_idx * 7_013) % 50_000_000))?;
    }
    if p.year >= 2006 && opt(rng, 0.3, scale) {
        b.leaf("broadcast_media", "state and private broadcasters")?;
    }
    b.end_element()?;
    Ok(())
}

fn build_transnational_issues(
    b: &mut DocumentBuilder<'_>,
    p: &DocParams<'_>,
    rng: &mut StdRng,
    scale: f64,
) -> Result<()> {
    b.start_element("transnational_issues")?;
    if opt(rng, 0.7, scale) {
        b.leaf(
            "disputes",
            &format!(
                "boundary dispute with {}",
                names::pick(names::COUNTRIES, p.country_idx * 11 + 5)
            ),
        )?;
    }
    // The refugees path occurs in roughly 186 of 1600 documents in the paper;
    // the transnational_issues section itself appears in ~35% of documents and
    // refugees in ~33% of those, giving ~11.6% of all documents.
    if opt(rng, 0.33, scale) {
        b.start_element("refugees")?;
        b.leaf("country_of_origin", names::pick(names::COUNTRIES, p.country_idx * 23 + 9))?;
        b.leaf("number", &format!("{}", 100 + (p.country_idx * 977) % 2_000_000))?;
        b.end_element()?;
    }
    if opt(rng, 0.25, scale) {
        b.leaf("trafficking", "transit point for illicit goods")?;
    }
    b.end_element()?;
    Ok(())
}

/// Places rare "indicator" fields deterministically so the corpus exhibits a
/// long tail of distinct paths: indicator `i` occurs in documents `j` with
/// `(j + 7 i) mod (i + 2) == 0`, i.e. roughly `N/(i+2)` documents.
fn build_rare_fields(b: &mut DocumentBuilder<'_>, p: &DocParams<'_>) -> Result<()> {
    let pool = p.config.rare_field_pool;
    if pool == 0 {
        return Ok(());
    }
    let sections = ["economy_indicators", "social_indicators", "environment_indicators"];
    let mut opened: Option<usize> = None;
    for i in 0..pool {
        let modulus = i + 2;
        if (p.doc_index + 7 * i).is_multiple_of(modulus) {
            let section = i % sections.len();
            match opened {
                Some(current) if current == section => {}
                Some(_) => {
                    b.end_element()?;
                    b.start_element(sections[section])?;
                    opened = Some(section);
                }
                None => {
                    b.start_element(sections[section])?;
                    opened = Some(section);
                }
            }
            b.leaf(&format!("indicator_{i:04}"), &format!("{}", (p.doc_index * 31 + i) % 10_000))?;
        }
    }
    if opened.is_some() {
        b.end_element()?;
    }
    Ok(())
}

impl FactbookConfig {
    /// Convenience constructor used by tests and benches that want a corpus
    /// with paper-like proportions but custom size.
    pub fn paper_scaled(countries: usize, years: usize) -> Self {
        let mut config = FactbookConfig::paper();
        config.countries = countries;
        let all_years = vec![2002, 2003, 2004, 2005, 2006, 2007];
        config.years = all_years.into_iter().take(years.max(1)).collect();
        config.rare_field_pool = (countries * years * 12 / 10).max(20);
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_has_expected_document_count() {
        let config = FactbookConfig::small();
        let c = generate(&config).unwrap();
        assert_eq!(c.len(), config.countries * config.years.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let config = FactbookConfig::tiny();
        let a = generate(&config).unwrap();
        let b = generate(&config).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.distinct_path_count(), b.distinct_path_count());
        assert_eq!(a.total_nodes(), b.total_nodes());
    }

    #[test]
    fn schema_evolution_gdp_vs_gdp_ppp() {
        let c = generate(&FactbookConfig::small()).unwrap();
        let gdp = c.paths().get_str(c.symbols(), "/country/economy/GDP");
        let gdp_ppp = c.paths().get_str(c.symbols(), "/country/economy/GDP_ppp");
        assert!(gdp.is_some(), "pre-2005 documents must use GDP");
        assert!(gdp_ppp.is_some(), "2005+ documents must use GDP_ppp");
        // Every GDP node must be in a pre-2005 document, every GDP_ppp node in
        // a 2005+ document.
        for node in c.nodes_with_path(gdp.unwrap()) {
            let doc = c.document(node.doc).unwrap();
            let year_path = c.paths().get_str(c.symbols(), "/country/year").unwrap();
            let year_node = doc.nodes_with_path(year_path)[0];
            let year: u16 = doc.content(year_node).parse().unwrap();
            assert!(year < 2005, "GDP found in year {year}");
        }
    }

    #[test]
    fn query1_fixed_facts_are_present() {
        let c = generate(&FactbookConfig::small()).unwrap();
        let tc_path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let nodes = c.nodes_with_path(tc_path);
        let mut china_with_15 = false;
        for node in nodes {
            if c.content(node).unwrap() == "China" {
                let doc = c.document(node.doc).unwrap();
                let parent = doc.parent(node.node).unwrap();
                let item_content = doc.content(parent);
                if item_content.contains("15") {
                    china_with_15 = true;
                }
            }
        }
        assert!(china_with_15, "US 2006 must import 15% from China (Fig. 3)");
    }

    #[test]
    fn united_states_appears_in_many_contexts() {
        let c = generate(&FactbookConfig::small()).unwrap();
        let mut contexts = std::collections::HashSet::new();
        for doc in c.documents() {
            for (ordinal, node) in doc.iter() {
                if node.is_leaf() && doc.content(ordinal).contains("United States") {
                    contexts.insert(node.path);
                }
            }
        }
        assert!(
            contexts.len() >= 5,
            "expected the US to occur in several contexts, got {}",
            contexts.len()
        );
    }

    #[test]
    fn rare_fields_produce_long_tail_of_paths() {
        let config = FactbookConfig::small();
        let c = generate(&config).unwrap();
        // Base schema is ~75 paths; rare indicators push it well beyond.
        assert!(c.distinct_path_count() > 100, "distinct paths = {}", c.distinct_path_count());
        // And the frequency distribution has a long tail: some path occurs in
        // only one document.
        let documents = c.path_counts().documents;
        assert!(documents.contains(&1));
        // while /country occurs in almost all documents.
        let country = c.paths().get_str(c.symbols(), "/country").unwrap();
        assert!(documents[country.index()] as f64 >= 0.9 * c.len() as f64);
    }

    #[test]
    fn refugees_path_is_rare_but_present() {
        let c = generate(&FactbookConfig::paper_scaled(200, 6)).unwrap();
        let refugees = c
            .paths()
            .get_str(c.symbols(), "/country/transnational_issues/refugees/country_of_origin");
        assert!(refugees.is_some());
        let f = c.path_counts().documents[refugees.unwrap().index()];
        let total = c.len();
        // ~11-12% of documents in the paper (186/1600); allow a generous band.
        assert!(
            f * 100 / total >= 4 && f * 100 / total <= 25,
            "refugees path in {f}/{total} documents"
        );
    }

    #[test]
    fn territory_documents_exist_at_paper_scale_fraction() {
        let mut config = FactbookConfig::small();
        config.territory_fraction = 0.2;
        config.seed = 11;
        let c = generate(&config).unwrap();
        let territory = c.paths().get_str(c.symbols(), "/territory");
        assert!(territory.is_some(), "some documents must be rooted at territory");
        let country = c.paths().get_str(c.symbols(), "/country").unwrap();
        let documents = c.path_counts().documents;
        assert!(documents[country.index()] < c.len(), "/country must not occur in every document");
    }
}
