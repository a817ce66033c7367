//! # rafda-runtime
//!
//! The RAFDA distributed runtime: it takes a *transformed* class universe
//! (`rafda-transform`) and deploys it over a simulated cluster
//! (`rafda-net`), implementing the pieces the paper leaves to the runtime:
//!
//! * the **factory hooks** — the generated `make()` and `discover()` methods
//!   are `native`; this crate installs their implementations. `make()` asks
//!   the [`DistributionPolicy`](rafda_policy::DistributionPolicy) where the
//!   instance goes ("the object creation method contains the policy
//!   determining which of the classes implementing `A_O_Int` will be used",
//!   Section 2); every other policy decision is read once per class, when
//!   the cluster is deployed;
//! * the **proxy hooks** — every method of the `A_O_Proxy_<P>` /
//!   `A_C_Proxy_<P>` classes of the protocol `P` the policy chose for `A`
//!   marshals the call with `P`
//!   (`rafda-wire`), ships it over the simulated network, and the owning
//!   node's VM executes the real method, with results, remote references
//!   and exceptions marshalled back;
//! * **object registries** — exported objects, imported proxies, and the
//!   per-node singletons implementing static members;
//! * **dynamic boundary changes** — [`Cluster::migrate`] moves a live
//!   object to another node, rewriting the local instance *in place* into a
//!   proxy (the paper's Figure 1: `C` becomes `Cp`), and
//!   [`Cluster::pull_local`] reverses it; [`Cluster::adapt`] runs the
//!   affinity loop that re-draws boundaries automatically.
//!
//! ## Example
//!
//! ```
//! use rafda_classmodel::{ClassUniverse, sample};
//! use rafda_transform::Transformer;
//! use rafda_runtime::Cluster;
//! use rafda_policy::StaticPolicy;
//! use rafda_vm::Value;
//!
//! let mut universe = ClassUniverse::new();
//! sample::build_figure2(&mut universe);
//! let outcome = Transformer::new().protocols(&["RMI"]).run(&mut universe).unwrap();
//! // Statics of X, Y, Z live on node 1; the driver runs on node 0.
//! let policy = StaticPolicy::new().default_statics(rafda_net::NodeId(1));
//! let cluster = Cluster::new(universe, outcome.plan, 2, 42, Box::new(policy));
//! let r = cluster
//!     .call_static(rafda_net::NodeId(0), "X", "p", vec![Value::Int(6)])
//!     .unwrap();
//! assert_eq!(r, Value::Int(42)); // same answer as the original program
//! assert!(cluster.network().stats().messages > 0); // …but it went remote
//! ```

#![warn(missing_docs)]

mod batch;
pub mod cluster;
mod detector;
mod directory;
mod failover;
mod fifo;
pub mod introspect;
pub mod local;
pub mod marshal;
mod obs;
pub mod persist;
mod placement;
pub mod profile;
mod replicate;
mod rpc;
mod serve;
pub mod soak;
mod stats;
mod watchdog;

pub use cluster::{Cluster, MigrationEvent, NodeSummary, RemoteRef, RetryPolicy, RuntimeStats};
pub use introspect::{declare_introspection, INTROSPECTION_CLASS};
pub use local::LocalRuntime;
pub use persist::{SnapObject, SnapSlot, Snapshot};
pub use profile::{HostProfile, Section, SectionGuard};
pub use soak::{PhaseStats, SoakRecorder, SoakReport};
