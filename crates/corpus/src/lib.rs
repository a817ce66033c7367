//! # rafda-corpus
//!
//! Synthetic program generators for the RAFDA reproduction:
//!
//! * [`jdk`] — a seeded generator producing a class library with the *shape*
//!   of JDK 1.4.1 (package structure, native-method density, special
//!   classes, inheritance and reference graph). The paper's Section 2.4
//!   statistic — "about 40 % of the 8,200 classes and interfaces in JDK
//!   1.4.1 cannot be transformed" — is a property of the propagation rules
//!   over exactly this graph shape, which experiment E3 reproduces.
//! * [`scenarios`] — hand-built realistic workloads (an auction house) of
//!   the kind the paper's introduction motivates: ordinary OO programs
//!   written without distribution in mind;
//! * [`app`] — a seeded generator producing small *executable* applications
//!   (object chains with fields, methods, statics and observable output)
//!   used by the semantic-equivalence property tests (E7) and the overhead
//!   benchmarks (E4/E8);
//! * [`ops`] — the shared chaos/soak operation vocabulary: one op enum,
//!   one seeded op generator behind both the per-feature weighted mixes
//!   and the E16 production-day churn, and one oracle-step function.
//!
//! All generators are fully deterministic per seed.

#![warn(missing_docs)]

pub mod app;
pub mod jdk;
pub mod ops;
pub mod rng;
pub mod scenarios;
pub mod workload;

pub use app::{generate_app, AppInfo, AppSpec, ObserverHooks};
pub use jdk::{breakdown_by_package, generate_jdk, JdkProfile, JdkStats, PackageSpec};
pub use ops::{
    generate_churn, ChurnConfig, ChurnPhase, ChurnSchedule, OpMix, Oracle, PoolClass, SoakOp,
};
pub use scenarios::{build_auction_house, AuctionIds};
