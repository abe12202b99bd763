//! Mondial-like corpus generator.
//!
//! Mondial is a compilation of geographical web sources: countries, cities,
//! provinces, seas, rivers and international organizations, densely linked by
//! ID/IDREF references (Figure 1 of the paper shows `bordering` edges between
//! seas and countries and a `trade partner` relationship).  The paper reports
//! 5563 Mondial documents collapsing to 86 dataguides at a 40% overlap
//! threshold: many documents, few structural shapes.
//!
//! The generator emits one document per geographic entity.  Every document
//! carries an `id` attribute; references to other entities use attributes
//! whose name ends in `_idref`, which is the convention `seda-datagraph`
//! recognises when building IDREF edges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seda_xmlstore::{Collection, Result};

use crate::names;

/// Configuration of the Mondial-like generator.
#[derive(Debug, Clone)]
pub struct MondialConfig {
    /// Number of country documents.
    pub countries: usize,
    /// Number of province documents.
    pub provinces: usize,
    /// Number of city documents.
    pub cities: usize,
    /// Number of sea documents.
    pub seas: usize,
    /// Number of river documents.
    pub rivers: usize,
    /// Number of organization documents.
    pub organizations: usize,
    /// Number of miscellaneous physical-feature documents (islands, lakes,
    /// mountains, deserts), split evenly across the four kinds.
    pub features: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MondialConfig {
    /// Paper-scale configuration: 5563 documents.
    pub fn paper() -> Self {
        MondialConfig {
            countries: 240,
            provinces: 1450,
            cities: 3100,
            seas: 43,
            rivers: 150,
            organizations: 80,
            features: 500,
            seed: 0x0D1A_2009,
        }
    }

    /// Small configuration for tests (~170 documents).
    pub fn small() -> Self {
        MondialConfig {
            countries: 20,
            provinces: 40,
            cities: 80,
            seas: 8,
            rivers: 10,
            organizations: 6,
            features: 8,
            seed: 17,
        }
    }

    /// Number of documents this configuration will produce.
    pub fn document_count(&self) -> usize {
        self.countries
            + self.provinces
            + self.cities
            + self.seas
            + self.rivers
            + self.organizations
            + self.features
    }
}

impl Default for MondialConfig {
    fn default() -> Self {
        MondialConfig::paper()
    }
}

fn country_id(idx: usize) -> String {
    format!("cty-{idx:04}")
}

fn city_id(idx: usize) -> String {
    format!("city-{idx:05}")
}

fn org_id(idx: usize) -> String {
    format!("org-{idx:03}")
}

fn sea_id(idx: usize) -> String {
    format!("sea-{idx:03}")
}

/// Generates a Mondial-like collection.
pub fn generate(config: &MondialConfig) -> Result<Collection> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut collection = Collection::new();
    let n_countries = config.countries.min(names::COUNTRIES.len()).max(1);

    // Countries.
    for i in 0..config.countries {
        let name = names::pick(names::COUNTRIES, i);
        let has_coast = i % 3 != 0;
        let org_memberships = 1 + i % 3;
        let capital = city_id(i % config.cities.max(1));
        let uri = format!("mondial/country/{i}.xml");
        collection.add_document(uri, |b| {
            b.start_element("country")?;
            b.attribute("id", &country_id(i))?;
            b.attribute("capital_idref", &capital)?;
            b.leaf("name", name)?;
            b.leaf("area", &format!("{}", 1000 + (i * 7919) % 9_000_000))?;
            b.leaf("population", &format!("{}", 40_000 + (i * 5_000_017) % 1_200_000_000))?;
            if has_coast {
                b.start_element("borders")?;
                let k = 1 + i % 4;
                for j in 1..=k {
                    b.start_element("bordering")?;
                    b.attribute("sea_idref", &sea_id((i + j) % config.seas.max(1)))?;
                    b.end_element()?;
                }
                b.end_element()?;
            }
            b.start_element("memberships")?;
            for j in 0..org_memberships {
                b.start_element("member_of")?;
                b.attribute(
                    "organization_idref",
                    &org_id((i + j * 13) % config.organizations.max(1)),
                )?;
                b.end_element()?;
            }
            b.end_element()?;
            if i % 5 == 0 {
                b.leaf("gdp_total", &format!("{}", 500 + (i * 331) % 15_000))?;
            }
            if i % 7 == 0 {
                b.leaf("inflation", &format!("{:.1}", (i % 80) as f64 / 10.0))?;
            }
            b.end_element()?;
            Ok(())
        })?;
    }

    // Provinces.
    for i in 0..config.provinces {
        let parent = i % n_countries;
        let uri = format!("mondial/province/{i}.xml");
        collection.add_document(uri, |b| {
            b.start_element("province")?;
            b.attribute("id", &format!("prov-{i:05}"))?;
            b.attribute("country_idref", &country_id(parent))?;
            b.leaf("name", &format!("{} Province {}", names::pick(names::COUNTRIES, parent), i))?;
            b.leaf("area", &format!("{}", 100 + (i * 797) % 500_000))?;
            b.leaf("population", &format!("{}", 5_000 + (i * 40_013) % 40_000_000))?;
            if i % 4 == 0 {
                b.attribute("capital_idref", &city_id(i % config.cities.max(1)))?;
            }
            b.end_element()?;
            Ok(())
        })?;
    }

    // Cities.
    for i in 0..config.cities {
        let country = i % n_countries;
        let uri = format!("mondial/city/{i}.xml");
        let is_coastal = rng.gen_bool(0.25);
        collection.add_document(uri, |b| {
            b.start_element("city")?;
            b.attribute("id", &city_id(i))?;
            b.attribute("country_idref", &country_id(country))?;
            b.leaf("name", &format!("{} City {}", names::pick(names::COUNTRIES, country), i))?;
            b.leaf("population", &format!("{}", 1_000 + (i * 9_377) % 25_000_000))?;
            if i % 3 == 0 {
                b.start_element("location")?;
                b.leaf("latitude", &format!("{:.2}", (i % 180) as f64 - 90.0))?;
                b.leaf("longitude", &format!("{:.2}", (i % 360) as f64 - 180.0))?;
                b.end_element()?;
            }
            if is_coastal {
                b.start_element("located_at")?;
                b.attribute("sea_idref", &sea_id(i % config.seas.max(1)))?;
                b.end_element()?;
            }
            b.end_element()?;
            Ok(())
        })?;
    }

    // Seas: Figure 1 shows seas with `bordering` relationships to countries.
    for i in 0..config.seas {
        let uri = format!("mondial/sea/{i}.xml");
        collection.add_document(uri, |b| {
            b.start_element("sea")?;
            b.attribute("id", &sea_id(i))?;
            b.leaf("name", names::pick(names::SEAS, i))?;
            b.leaf("depth", &format!("{}", 200 + (i * 731) % 11_000))?;
            b.start_element("bordering_countries")?;
            let k = 2 + i % 4;
            for j in 0..k {
                b.start_element("bordering")?;
                b.attribute(
                    "country_idref",
                    &country_id((i * 5 + j * 3) % config.countries.max(1)),
                )?;
                b.end_element()?;
            }
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })?;
    }

    // Rivers.
    for i in 0..config.rivers {
        let uri = format!("mondial/river/{i}.xml");
        collection.add_document(uri, |b| {
            b.start_element("river")?;
            b.attribute("id", &format!("river-{i:04}"))?;
            b.leaf("name", names::pick(names::RIVERS, i))?;
            b.leaf("length", &format!("{}", 100 + (i * 631) % 7_000))?;
            b.start_element("flows_through")?;
            b.attribute("country_idref", &country_id(i % config.countries.max(1)))?;
            b.end_element()?;
            if i % 2 == 0 {
                b.start_element("mouth")?;
                b.attribute("sea_idref", &sea_id(i % config.seas.max(1)))?;
                b.end_element()?;
            }
            b.end_element()?;
            Ok(())
        })?;
    }

    // Organizations.
    for i in 0..config.organizations {
        let uri = format!("mondial/organization/{i}.xml");
        collection.add_document(uri, |b| {
            b.start_element("organization")?;
            b.attribute("id", &org_id(i))?;
            b.leaf("name", names::pick(names::ORGANIZATIONS, i))?;
            b.leaf("established", &format!("{}", 1919 + (i * 7) % 90))?;
            b.start_element("headquarters")?;
            b.attribute("city_idref", &city_id(i % config.cities.max(1)))?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })?;
    }

    // Miscellaneous physical features: four shapes.
    let kinds = ["island", "lake", "mountain", "desert"];
    for i in 0..config.features {
        let kind = kinds[i % kinds.len()];
        let uri = format!("mondial/{kind}/{i}.xml");
        collection.add_document(uri, |b| {
            b.start_element(kind)?;
            b.attribute("id", &format!("{kind}-{i:04}"))?;
            b.leaf("name", &format!("{} {}", names::pick(names::COUNTRIES, i * 3), kind))?;
            match kind {
                "island" => {
                    b.leaf("area", &format!("{}", 10 + (i * 97) % 100_000))?;
                    b.start_element("in_sea")?;
                    b.attribute("sea_idref", &sea_id(i % config.seas.max(1)))?;
                    b.end_element()?;
                }
                "lake" => {
                    b.leaf("area", &format!("{}", 5 + (i * 53) % 50_000))?;
                    b.leaf("depth", &format!("{}", 3 + (i * 17) % 1600))?;
                }
                "mountain" => {
                    b.leaf("height", &format!("{}", 800 + (i * 211) % 8000))?;
                }
                _ => {
                    b.leaf("area", &format!("{}", 1000 + (i * 307) % 9_000_000))?;
                }
            }
            b.start_element("located_in")?;
            b.attribute("country_idref", &country_id(i % config.countries.max(1)))?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })?;
    }

    Ok(collection)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_count_matches_config() {
        let config = MondialConfig::small();
        let c = generate(&config).unwrap();
        assert_eq!(c.len(), config.document_count());
    }

    #[test]
    fn paper_config_matches_table1_document_count() {
        assert_eq!(MondialConfig::paper().document_count(), 5563);
    }

    #[test]
    fn few_distinct_shapes() {
        let c = generate(&MondialConfig::small()).unwrap();
        // Mondial is structurally regular: the number of distinct paths is
        // small compared to the number of documents.
        assert!(c.distinct_path_count() < 100, "paths = {}", c.distinct_path_count());
        assert!(c.distinct_path_count() < c.len(), "far fewer shapes than documents");
    }

    #[test]
    fn idref_attributes_follow_naming_convention() {
        let c = generate(&MondialConfig::small()).unwrap();
        let sea_ref = c.paths().get_str(c.symbols(), "/country/borders/bordering/sea_idref");
        assert!(sea_ref.is_some(), "country documents must reference seas by idref");
        let country_ref = c.paths().get_str(c.symbols(), "/city/country_idref");
        assert!(country_ref.is_some(), "city documents must reference their country");
    }

    #[test]
    fn ids_are_unique_across_documents_of_a_kind() {
        let c = generate(&MondialConfig::small()).unwrap();
        let id_path = c.paths().get_str(c.symbols(), "/country/id").unwrap();
        let mut seen = std::collections::HashSet::new();
        for node in c.nodes_with_path(id_path) {
            assert!(seen.insert(c.content(node).unwrap()), "duplicate country id");
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&MondialConfig::small()).unwrap();
        let b = generate(&MondialConfig::small()).unwrap();
        assert_eq!(a.total_nodes(), b.total_nodes());
        assert_eq!(a.distinct_path_count(), b.distinct_path_count());
    }
}
