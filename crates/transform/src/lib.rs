//! # rafda-transform
//!
//! The RAFDA code-transformation engine — the paper's primary contribution
//! (Section 2).
//!
//! Given a class universe, the engine:
//!
//! 1. runs the **transformability analysis** of Section 2.4
//!    ([`analysis`]): classes with native methods, classes with special JVM
//!    semantics, and the closure of those under the reference and
//!    inheritance propagation rules cannot be transformed;
//! 2. for each *substitutable* class `A` (policy decides which transformable
//!    classes are substitutable), generates the artefact family of
//!    Sections 2.1–2.3 ([`generate`]):
//!    `A_O_Int`, `A_O_Local`, `A_O_Proxy_<P>` per protocol,
//!    `A_C_Int`, `A_C_Local`, `A_C_Proxy_<P>` (when `A` has static members),
//!    `A_O_Factory` (`make` + `init_k` per constructor) and
//!    `A_C_Factory` (`discover` + `clinit`);
//! 3. **rewrites every body** that mentions a substitutable class
//!    ([`rewrite`]): field access becomes property access, `new` becomes
//!    `make`+`init`, static access goes through `discover()`, and all type
//!    signatures are rewritten to the extracted interfaces.
//!
//! The generated `make`/`discover` factory methods are `native`: their
//! implementation *is* the distribution policy, installed by the runtime
//! (`rafda-runtime`). This is the paper's point that object creation and
//! class discovery are "the only potentially implementation-aware methods".
//!
//! ## Example
//!
//! ```
//! use rafda_classmodel::{ClassUniverse, sample, verify_universe};
//! use rafda_transform::Transformer;
//!
//! let mut universe = ClassUniverse::new();
//! sample::build_figure2(&mut universe);
//! let outcome = Transformer::new()
//!     .protocols(&["SOAP", "RMI"])
//!     .run(&mut universe)
//!     .unwrap();
//! assert!(universe.by_name("X_O_Int").is_some());
//! assert!(universe.by_name("X_O_Proxy_SOAP").is_some());
//! assert!(universe.by_name("X_C_Factory").is_some());
//! verify_universe(&universe).unwrap(); // rewritten code still verifies
//! assert_eq!(outcome.report.substitutable_count, 3); // X, Y, Z
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod engine;
pub mod generate;
pub mod naming;
pub mod plan;
pub mod rewrite;

pub use analysis::{analyze, NonTransformableReason, TransformabilityReport};
pub use engine::{TransformError, TransformOutcome, TransformReport, Transformer};
pub use plan::{Family, Half, TransformPlan};
