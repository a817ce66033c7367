//! JDK-1.4.1-shaped synthetic class library.
//!
//! The generator does not try to clone the JDK's API — only the graph
//! properties the transformability analysis is sensitive to:
//!
//! * ~8,200 classes and interfaces in packages of very different character:
//!   `java.lang`/`java.io`/`java.net`/`java.awt`/`sun.*` are dense in
//!   `native` methods and JVM-special classes, while `java.util`,
//!   `javax.swing`, `java.text`, … are mostly pure bytecode;
//! * intra-package inheritance trees, with `java.lang` (`Throwable` et al.)
//!   as a frequent cross-package superclass target;
//! * a reference graph (field types + method signatures) biased toward the
//!   same package and toward the core packages — which is what lets
//!   non-transformability *propagate* from a small native/special seed to
//!   the ~40 % the paper reports.

use crate::rng::Rng;
use rafda_classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda_classmodel::{ClassId, ClassKind, ClassUniverse, Field, Ty};

/// One synthetic package.
#[derive(Debug, Clone)]
pub struct PackageSpec {
    /// Package name (used as a class-name prefix).
    pub name: &'static str,
    /// Number of classes + interfaces.
    pub classes: usize,
    /// Probability a class declares at least one `native` method.
    pub native_prob: f64,
    /// Probability a class has special JVM semantics.
    pub special_prob: f64,
    /// Fraction of entries that are interfaces.
    pub interface_frac: f64,
    /// Relative weight as a *target* of cross-package references (the
    /// "coreness" of the package).
    pub ref_weight: f64,
}

/// The whole corpus profile.
#[derive(Debug, Clone)]
pub struct JdkProfile {
    /// The synthetic packages, in declaration order.
    pub packages: Vec<PackageSpec>,
    /// Mean outgoing references per class (field types + signatures),
    /// *excluding* hub references.
    pub refs_per_class: f64,
    /// Probability a reference stays within the package.
    pub same_package_bias: f64,
    /// Probability a class extends another class of its package.
    pub inherit_prob: f64,
    /// Number of `java.lang` hub classes (`Object`, `String`, `Class`, …)
    /// that soak up most reference edges. They are special (and hence
    /// non-transformable) from the start, so referencing them adds no new
    /// poisoning — which is exactly why real-world propagation stays
    /// bounded.
    pub hub_classes: usize,
    /// Probability any given reference edge points at a hub.
    pub hub_bias: f64,
    /// RNG seed.
    pub seed: u64,
}

impl JdkProfile {
    /// A profile calibrated to JDK 1.4.1's published shape: 8,204 classes
    /// and interfaces across the major package groups, with native density
    /// concentrated in the platform packages.
    pub fn jdk_1_4_1() -> Self {
        JdkProfile {
            packages: vec![
                PackageSpec {
                    name: "java_lang",
                    classes: 320,
                    native_prob: 0.34,
                    special_prob: 0.22,
                    interface_frac: 0.12,
                    ref_weight: 10.0,
                },
                PackageSpec {
                    name: "java_io",
                    classes: 340,
                    native_prob: 0.28,
                    special_prob: 0.02,
                    interface_frac: 0.10,
                    ref_weight: 5.0,
                },
                PackageSpec {
                    name: "java_net",
                    classes: 200,
                    native_prob: 0.30,
                    special_prob: 0.01,
                    interface_frac: 0.12,
                    ref_weight: 2.0,
                },
                PackageSpec {
                    name: "java_nio",
                    classes: 230,
                    native_prob: 0.26,
                    special_prob: 0.01,
                    interface_frac: 0.10,
                    ref_weight: 1.5,
                },
                PackageSpec {
                    name: "java_awt",
                    classes: 1100,
                    native_prob: 0.18,
                    special_prob: 0.01,
                    interface_frac: 0.14,
                    ref_weight: 3.0,
                },
                PackageSpec {
                    name: "sun_internal",
                    classes: 1450,
                    native_prob: 0.22,
                    special_prob: 0.02,
                    interface_frac: 0.08,
                    ref_weight: 1.0,
                },
                PackageSpec {
                    name: "java_util",
                    classes: 620,
                    native_prob: 0.03,
                    special_prob: 0.005,
                    interface_frac: 0.18,
                    ref_weight: 6.0,
                },
                PackageSpec {
                    name: "java_text",
                    classes: 180,
                    native_prob: 0.02,
                    special_prob: 0.0,
                    interface_frac: 0.10,
                    ref_weight: 1.0,
                },
                PackageSpec {
                    name: "java_security",
                    classes: 400,
                    native_prob: 0.04,
                    special_prob: 0.005,
                    interface_frac: 0.16,
                    ref_weight: 1.0,
                },
                PackageSpec {
                    name: "javax_swing",
                    classes: 1850,
                    native_prob: 0.015,
                    special_prob: 0.0,
                    interface_frac: 0.12,
                    ref_weight: 2.0,
                },
                PackageSpec {
                    name: "org_omg",
                    classes: 870,
                    native_prob: 0.01,
                    special_prob: 0.0,
                    interface_frac: 0.30,
                    ref_weight: 0.5,
                },
                PackageSpec {
                    name: "javax_other",
                    classes: 644,
                    native_prob: 0.02,
                    special_prob: 0.0,
                    interface_frac: 0.15,
                    ref_weight: 0.8,
                },
            ],
            refs_per_class: 0.55,
            same_package_bias: 0.75,
            inherit_prob: 0.3,
            hub_classes: 60,
            hub_bias: 0.72,
            seed: 0x2003_1117,
        }
    }

    /// The same shape scaled to approximately `total` classes (for sweeps
    /// and fast tests).
    pub fn scaled(total: usize) -> Self {
        let mut profile = Self::jdk_1_4_1();
        let full: usize = profile.packages.iter().map(|p| p.classes).sum();
        for p in &mut profile.packages {
            p.classes = (p.classes * total / full).max(1);
        }
        profile
    }

    /// Total classes in the profile.
    pub fn total_classes(&self) -> usize {
        self.packages.iter().map(|p| p.classes).sum()
    }

    /// Scale every package's native-method probability (E3b sensitivity
    /// sweep).
    pub fn with_native_scale(mut self, factor: f64) -> Self {
        for p in &mut self.packages {
            p.native_prob = (p.native_prob * factor).min(1.0);
        }
        self
    }

    /// Override the mean outgoing reference count (E3b sweep).
    pub fn with_refs_per_class(mut self, refs: f64) -> Self {
        self.refs_per_class = refs;
        self
    }
}

/// Per-package transformability row: `(package, total, non_transformable)`.
///
/// Groups a corpus analysis by the package prefix baked into generated
/// class names, reproducing the per-package structure a study of the real
/// JDK would report (native-heavy platform packages ≫ pure-bytecode
/// libraries).
pub fn breakdown_by_package(
    universe: &ClassUniverse,
    is_transformable: impl Fn(ClassId) -> bool,
) -> Vec<(String, usize, usize)> {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (id, class) in universe.iter() {
        let package = match class.name.rfind("_C") {
            Some(pos)
                if !class.name[pos + 2..].is_empty()
                    && class.name[pos + 2..].chars().all(|c| c.is_ascii_digit()) =>
            {
                class.name[..pos].to_owned()
            }
            _ => match class.name.find("_Hub") {
                Some(pos) => class.name[..pos].to_owned(),
                None => continue,
            },
        };
        let row = rows.entry(package).or_default();
        row.0 += 1;
        if !is_transformable(id) {
            row.1 += 1;
        }
    }
    rows.into_iter().map(|(p, (t, nt))| (p, t, nt)).collect()
}

/// Statistics of a generated corpus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JdkStats {
    /// Concrete + abstract classes generated.
    pub classes: usize,
    /// Interfaces generated.
    pub interfaces: usize,
    /// Classes with at least one native method.
    pub native_classes: usize,
    /// Classes with special JVM semantics (hubs included).
    pub special_classes: usize,
    /// Reference edges emitted (fields + signatures + hubs).
    pub reference_edges: usize,
}

/// Generate the corpus into `universe`, returning the generated ids and
/// statistics.
pub fn generate_jdk(
    universe: &mut ClassUniverse,
    profile: &JdkProfile,
) -> (Vec<ClassId>, JdkStats) {
    let mut rng = Rng::new(profile.seed);
    let mut stats = JdkStats::default();

    // Plan entries: (package index, is_interface, native, special).
    struct Entry {
        package: usize,
        interface: bool,
        native: bool,
        special: bool,
        id: ClassId,
    }
    let mut entries: Vec<Entry> = Vec::with_capacity(profile.total_classes());
    // Hub classes: the `Object`/`String`/`Class` analogues. Special, so
    // non-transformable by seed, and the dominant reference target.
    let mut hubs: Vec<ClassId> = Vec::with_capacity(profile.hub_classes);
    for hi in 0..profile.hub_classes {
        let id = universe.declare(&format!("java_lang_Hub{hi}"), ClassKind::Class);
        let mut cb = ClassBuilder::new(universe, id);
        cb.special();
        let mut mb = MethodBuilder::new(1);
        mb.ret();
        cb.ctor(universe, vec![], Some(mb.finish()));
        cb.finish(universe);
        stats.special_classes += 1;
        stats.classes += 1;
        hubs.push(id);
    }
    for (pi, p) in profile.packages.iter().enumerate() {
        for ci in 0..p.classes {
            let interface = rng.chance(p.interface_frac);
            let native = !interface && rng.chance(p.native_prob);
            let special = rng.chance(p.special_prob);
            let kind = if interface {
                ClassKind::Interface
            } else {
                ClassKind::Class
            };
            let id = universe.declare(&format!("{}_C{}", p.name, ci), kind);
            entries.push(Entry {
                package: pi,
                interface,
                native,
                special,
                id,
            });
        }
    }

    // Cross-package reference target sampler: weighted by package
    // ref_weight (cumulative table over entries).
    let weights: Vec<f64> = entries
        .iter()
        .map(|e| profile.packages[e.package].ref_weight)
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut cumulative: Vec<f64> = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cumulative.push(acc);
    }
    let pick_global = |rng: &mut Rng| -> usize {
        let x = rng.f64() * total_weight;
        match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
            Ok(i) | Err(i) => i.min(weights.len() - 1),
        }
    };

    // Package start offsets for same-package picks.
    let mut package_ranges: Vec<(usize, usize)> = Vec::new();
    {
        let mut start = 0;
        for p in &profile.packages {
            package_ranges.push((start, start + p.classes));
            start += p.classes;
        }
    }

    // Define every entry.
    for i in 0..entries.len() {
        let e = &entries[i];
        let (id, package, interface, native, special) =
            (e.id, e.package, e.interface, e.native, e.special);
        let mut cb = ClassBuilder::new(universe, id);
        if special {
            cb.special();
            stats.special_classes += 1;
        }
        if interface {
            stats.interfaces += 1;
        } else {
            stats.classes += 1;
        }

        // Inheritance: a class may extend an earlier class of its package;
        // an interface may extend an earlier interface of its package.
        let (lo, _hi) = package_ranges[package];
        if i > lo && rng.chance(profile.inherit_prob) {
            // Search a few candidates among earlier same-package entries.
            for _ in 0..6 {
                let j = lo + rng.below(i - lo);
                if entries[j].interface == interface {
                    if interface {
                        cb.implements(entries[j].id);
                    } else {
                        cb.superclass(entries[j].id);
                    }
                    break;
                }
            }
        }

        // References via fields and method signatures.
        let n_refs = {
            let base = profile.refs_per_class;
            let jitter = rng.f64() * base;
            (base / 2.0 + jitter).round() as usize
        };
        let mut referenced: Vec<ClassId> = Vec::with_capacity(n_refs + 1);
        // Hub references (String/Object-like) — very common, already NT.
        if !hubs.is_empty() {
            let n_hub_refs = 1 + rng.below(2);
            for _ in 0..n_hub_refs {
                if rng.chance(profile.hub_bias) {
                    referenced.push(hubs[rng.below(hubs.len())]);
                    stats.reference_edges += 1;
                }
            }
        }
        for _ in 0..n_refs {
            let j = if rng.chance(profile.same_package_bias) {
                let (lo, hi) = package_ranges[package];
                lo + rng.below(hi - lo)
            } else {
                pick_global(&mut rng)
            };
            if entries[j].id != id {
                referenced.push(entries[j].id);
                stats.reference_edges += 1;
            }
        }

        if interface {
            // Interface: 1-3 abstract methods, some mentioning references.
            let n_methods = rng.range(1, 3);
            for k in 0..n_methods {
                let params = if k < referenced.len() {
                    vec![Ty::Object(referenced[k])]
                } else {
                    vec![Ty::Int]
                };
                cb.method(universe, &format!("im{k}"), params, Ty::Int, None);
            }
        } else {
            // Fields: half primitive, half the referenced classes.
            for (k, &target) in referenced.iter().enumerate() {
                if k % 2 == 0 {
                    cb.field(Field::new(format!("r{k}"), Ty::Object(target)));
                } else {
                    cb.field(Field::new(format!("p{k}"), Ty::Int));
                    // The odd references flow through a method signature
                    // below instead.
                }
            }
            // Constructor.
            let mut mb = MethodBuilder::new(1);
            mb.ret();
            cb.ctor(universe, vec![], Some(mb.finish()));
            // Methods: trivial bodies; odd-indexed references appear as
            // parameter types.
            let n_methods = rng.range(1, 4);
            for k in 0..n_methods {
                let params = referenced
                    .get(k * 2 + 1)
                    .map(|&t| vec![Ty::Object(t)])
                    .unwrap_or_else(|| vec![Ty::Long]);
                let mut mb = MethodBuilder::new(2);
                mb.const_int(k as i32).ret_value();
                cb.method(
                    universe,
                    &format!("m{k}"),
                    params,
                    Ty::Int,
                    Some(mb.finish()),
                );
            }
            if native {
                cb.native_method(universe, "nat", vec![], Ty::Void);
                stats.native_classes += 1;
            }
        }
        cb.finish(universe);
    }

    (entries.into_iter().map(|e| e.id).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_totals_match_the_paper() {
        let p = JdkProfile::jdk_1_4_1();
        let total = p.total_classes();
        assert!(
            (8_100..=8_300).contains(&total),
            "JDK 1.4.1 had ~8,200 classes; profile has {total}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = JdkProfile::scaled(300);
        let mut u1 = ClassUniverse::new();
        let (ids1, s1) = generate_jdk(&mut u1, &profile);
        let mut u2 = ClassUniverse::new();
        let (ids2, s2) = generate_jdk(&mut u2, &profile);
        assert_eq!(s1, s2);
        assert_eq!(ids1.len(), ids2.len());
        for (&a, &b) in ids1.iter().zip(&ids2) {
            assert_eq!(u1.class(a).name, u2.class(b).name);
            assert_eq!(u1.class(a).fields.len(), u2.class(b).fields.len());
        }
    }

    #[test]
    fn generated_corpus_verifies() {
        let profile = JdkProfile::scaled(400);
        let mut u = ClassUniverse::new();
        let (_ids, stats) = generate_jdk(&mut u, &profile);
        rafda_classmodel::verify_universe(&u).unwrap();
        assert!(stats.classes > stats.interfaces);
        assert!(stats.native_classes > 0);
        assert!(stats.special_classes > 0);
        assert!(stats.reference_edges > 100);
    }

    #[test]
    fn scaled_profile_keeps_package_mix() {
        let p = JdkProfile::scaled(820);
        let total = p.total_classes();
        assert!((700..=900).contains(&total), "{total}");
        // java_lang keeps roughly its share.
        let lang = p.packages.iter().find(|x| x.name == "java_lang").unwrap();
        assert!(lang.classes >= 20);
    }

    #[test]
    fn native_scale_saturates_at_one() {
        let p = JdkProfile::jdk_1_4_1().with_native_scale(100.0);
        assert!(p.packages.iter().all(|x| x.native_prob <= 1.0));
    }
}
