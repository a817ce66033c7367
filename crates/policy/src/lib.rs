//! # rafda-policy
//!
//! Distribution policy: *where* objects and class singletons live, and
//! *which protocol* their proxies speak.
//!
//! The paper isolates all distribution decisions in two factory methods:
//! "The object creation method, `make`, selects which of the
//! implementations is to be used based on some policy" and "the only
//! potentially implementation-aware methods" (Sections 2.3). This crate is
//! that policy:
//!
//! * [`DistributionPolicy`] — the decision interface: asked once per class
//!   for its [`ClassRule`] when the runtime deploys, and at every `make()`
//!   for where the new instance goes;
//! * [`StaticPolicy`] — a declarative rule table (with a text format, see
//!   [`StaticPolicy::parse`]): per-class overrides of placement, statics
//!   owner, protocol and the mechanism switches, over one default rule;
//! * [`AffinityConfig`] — parameters of the adaptive boundary-moving loop
//!   ("the distributed program can adapt to its environment by dynamically
//!   altering its distribution boundaries", Section 1), executed by
//!   `rafda-runtime`.

#![warn(missing_docs)]

use rafda_net::NodeId;
use std::collections::HashMap;
use std::fmt;

/// Where new instances of a class are placed by `make()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On the node executing `make()` (a local, non-remote object).
    Creator,
    /// Always on the given node (remote for everyone else).
    Node(NodeId),
}

/// A sharding directive: place instances of a class across the cluster by
/// the deterministic hash of a key read through `key_getter`, split into
/// `modulo` shards (`class C shard by get_k modulo N` in the text format).
///
/// The runtime maintains a shard→node map alongside the failover `homes`
/// map; an instance is moved onto its shard's node once its key is
/// readable (after construction) and the adaptation tick may rebalance
/// whole shards between nodes when call counts show hot-key skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Name of the zero-argument getter whose result keys the shard hash.
    pub key_getter: String,
    /// Number of shards the key space is split into (always > 0).
    pub modulo: u32,
}

/// Everything a deployment holds about one class for its whole life: every
/// distribution decision except where `make()` places a new instance.
/// [`Default`] is the library default — RMI proxies, statics on node 0,
/// every mechanism off, no shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassRule {
    /// The proxy protocol remote references to the class speak (`"RMI"`,
    /// `"SOAP"`, `"CORBA"`).
    pub protocol: String,
    /// The node owning the singleton that implements the class's static
    /// members.
    pub statics: NodeId,
    /// Whether proxies may cache property (`get_f`) results.
    ///
    /// Caching is coherent — entries are version-tagged and dropped when
    /// the owner's copy changes — but a cached read can still return a
    /// value the owner mutated *locally* since the last exchange with this
    /// proxy (the invalidation piggybacks on reply traffic rather than
    /// being pushed). Classes whose fields are mutated outside their
    /// accessors should therefore stay uncacheable.
    pub cache: bool,
    /// How many backup nodes keep a promotable copy of each exported
    /// instance.
    ///
    /// With `k > 0` the owner synchronously ships the object's state to the
    /// k lowest-numbered other nodes after every served mutating call, and a
    /// caller whose owner crash-stops transparently re-homes to the
    /// lowest-numbered live replica. With 0 a crashed owner surfaces as a
    /// typed `Unreachable` error.
    pub replicas: u32,
    /// Whether deferrable outcalls — void-returning methods and property
    /// sets, whose results the caller never observes directly — may be
    /// queued and shipped to the owner as one batched frame at the next
    /// synchronization point (a value-returning call, migration, adaptation
    /// tick, clock read or explicit flush).
    ///
    /// Batching preserves per-owner ordering and at-most-once execution,
    /// but a batched operation's *exception* only surfaces at the flush
    /// point rather than at the call site. Classes whose void methods are
    /// used for control flow via exceptions should stay unbatched.
    ///
    /// Per-owner ordering is kept by queueing per `(caller, owner)`, not
    /// per class: when two batched classes with different
    /// [`protocol`](ClassRule::protocol)s have instances on one owner, their
    /// deferred operations share a queue and travel in one frame, encoded
    /// with the protocol of the class whose operation was queued first.
    pub batch: bool,
    /// The sharding directive, if any.
    ///
    /// With `Some(spec)` the runtime places each instance on the node that
    /// owns shard `hash(key) % spec.modulo`, where the key is read through
    /// `spec.key_getter` once the instance is constructed. `None` leaves
    /// placement to [`DistributionPolicy::instance_node`].
    pub shard: Option<ShardSpec>,
    /// Whether getters on remote instances may be served from the nearest
    /// live replica instead of the owner.
    ///
    /// Only meaningful when [`replicas`](ClassRule::replicas) is positive.
    /// A replica read is taken only when the replica's copy carries the
    /// owner's current version, so it can never observe stale state; on
    /// any version lag the call falls through to the owner.
    pub replica_reads: bool,
}

impl Default for ClassRule {
    fn default() -> Self {
        ClassRule {
            protocol: "RMI".to_owned(),
            statics: NodeId(0),
            cache: false,
            replicas: 0,
            batch: false,
            shard: None,
            replica_reads: false,
        }
    }
}

/// The decision interface the runtime deploys an application under.
///
/// # Contract
///
/// [`instance_node`](DistributionPolicy::instance_node) is the one live
/// decision: the runtime calls it at every `make()`, so its answer may
/// depend on the creating node and on what was asked before (a round-robin
/// placement does). [`rule`](DistributionPolicy::rule) is asked **once per
/// transformed class, at deployment**, and the answer is held for the life
/// of the cluster — it must be a pure function of the class name. A policy
/// that changed its rule later would not be asked again.
pub trait DistributionPolicy {
    /// The node on which `make()` executed at `creating_node` should place a
    /// new instance of `class`.
    fn instance_node(&self, class: &str, creating_node: NodeId) -> NodeId;

    /// Every other decision about `class`, resolved.
    fn rule(&self, class: &str) -> ClassRule;
}

/// A declarative per-class rule table.
///
/// # Example
///
/// ```
/// use rafda_policy::{DistributionPolicy, StaticPolicy};
/// use rafda_net::NodeId;
///
/// let policy = StaticPolicy::parse(
///     "default protocol RMI\n\
///      default statics node0\n\
///      class C place node2\n\
///      class C protocol SOAP\n\
///      class X statics node1\n",
/// ).unwrap();
/// assert_eq!(policy.instance_node("C", NodeId(0)), NodeId(2));
/// assert_eq!(policy.instance_node("D", NodeId(3)), NodeId(3));
/// assert_eq!(policy.rule("X").statics, NodeId(1));
/// assert_eq!(policy.protocol("C"), "SOAP");
/// assert_eq!(policy.protocol("D"), "RMI");
/// ```
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    /// What an unlisted class (or an unlisted decision of a listed one)
    /// gets.
    default: ClassRule,
    /// Where instances of a class with no placement directive go.
    place: Placement,
    /// Per-class overrides: only the decisions a directive named are set.
    rules: HashMap<String, Overrides>,
}

/// The decisions one class (or the default) states; `None` means "not
/// stated here".
#[derive(Debug, Clone, Default)]
struct Overrides {
    protocol: Option<String>,
    statics: Option<NodeId>,
    place: Option<Placement>,
    cache: Option<bool>,
    replicate: Option<u32>,
    batch: Option<bool>,
    shard: Option<ShardSpec>,
    replica_reads: Option<bool>,
}

impl Overrides {
    /// `base` with every decision stated here put in its place.
    fn over(&self, base: &ClassRule) -> ClassRule {
        ClassRule {
            protocol: self.protocol.as_ref().unwrap_or(&base.protocol).clone(),
            statics: self.statics.unwrap_or(base.statics),
            cache: self.cache.unwrap_or(base.cache),
            replicas: self.replicate.unwrap_or(base.replicas),
            batch: self.batch.unwrap_or(base.batch),
            shard: self.shard.as_ref().or(base.shard.as_ref()).cloned(),
            replica_reads: self.replica_reads.unwrap_or(base.replica_reads),
        }
    }

    /// The stated decisions as directive tails (`place node2`,
    /// `cache off`, …), in the order the default section lists them.
    fn directives(&self) -> Vec<String> {
        let switch = |on: bool| if on { "on" } else { "off" };
        let place = self.place.map(|p| match p {
            Placement::Creator => "place creator".to_owned(),
            Placement::Node(n) => format!("place node{}", n.0),
        });
        let shard = self
            .shard
            .as_ref()
            .map(|s| format!("shard by {} modulo {}", s.key_getter, s.modulo));
        // `reads from replicas` is a flag with no off-form: a false rule is
        // indistinguishable from no rule, so only true ones are rendered.
        let reads = self.replica_reads.filter(|&on| on);
        [
            self.protocol.as_ref().map(|p| format!("protocol {p}")),
            self.statics.map(|n| format!("statics node{}", n.0)),
            place,
            self.cache.map(|on| format!("cache {}", switch(on))),
            self.replicate.map(|k| format!("replicate {k}")),
            self.batch.map(|on| format!("batch {}", switch(on))),
            shard,
            reads.map(|_| "reads from replicas".to_owned()),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

impl Default for StaticPolicy {
    fn default() -> Self {
        StaticPolicy {
            default: ClassRule::default(),
            place: Placement::Creator,
            rules: HashMap::new(),
        }
    }
}

/// A policy-text parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyParseError {
    /// 1-based line number of the offending directive.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PolicyParseError {}

impl StaticPolicy {
    /// A policy with library defaults: creator placement and
    /// [`ClassRule::default`] for every class. On a one-node cluster this
    /// is "the local version of the transformed application" of the paper's
    /// Section 4.
    pub fn new() -> Self {
        Self::default()
    }

    /// The override rule of `class`, created empty on first use.
    fn overrides(&mut self, class: &str) -> &mut Overrides {
        self.rules.entry(class.to_owned()).or_default()
    }

    /// The proxy protocol of `class`.
    pub fn protocol(&self, class: &str) -> String {
        self.rule(class).protocol
    }

    /// The replication factor of `class`.
    pub fn replicas(&self, class: &str) -> u32 {
        self.rule(class).replicas
    }

    /// Whether proxies for `class` may cache property results.
    pub fn cacheable(&self, class: &str) -> bool {
        self.rule(class).cache
    }

    /// Set the default protocol.
    pub fn default_protocol(mut self, protocol: &str) -> Self {
        self.default.protocol = protocol.to_owned();
        self
    }

    /// Set the default statics owner.
    pub fn default_statics(mut self, node: NodeId) -> Self {
        self.default.statics = node;
        self
    }

    /// Set the default instance placement.
    pub fn default_placement(mut self, placement: Placement) -> Self {
        self.place = placement;
        self
    }

    /// Place instances of `class`.
    pub fn place(mut self, class: &str, placement: Placement) -> Self {
        self.overrides(class).place = Some(placement);
        self
    }

    /// Place the statics singleton of `class`.
    pub fn statics(mut self, class: &str, node: NodeId) -> Self {
        self.overrides(class).statics = Some(node);
        self
    }

    /// Select the proxy protocol for `class`.
    pub fn with_protocol(mut self, class: &str, protocol: &str) -> Self {
        self.overrides(class).protocol = Some(protocol.to_owned());
        self
    }

    /// Set the default property-cache switch (off unless overridden).
    pub fn default_cache(mut self, on: bool) -> Self {
        self.default.cache = on;
        self
    }

    /// Allow (or forbid) proxy-side property caching for `class`.
    pub fn cache(mut self, class: &str, on: bool) -> Self {
        self.overrides(class).cache = Some(on);
        self
    }

    /// Set the default replication factor (0 unless overridden).
    pub fn default_replicate(mut self, k: u32) -> Self {
        self.default.replicas = k;
        self
    }

    /// Keep promotable copies of `class` instances on `k` backup nodes.
    pub fn replicate(mut self, class: &str, k: u32) -> Self {
        self.overrides(class).replicate = Some(k);
        self
    }

    /// Set the default outcall-batching switch (off unless overridden).
    pub fn default_batch(mut self, on: bool) -> Self {
        self.default.batch = on;
        self
    }

    /// Allow (or forbid) batching deferrable outcalls on `class`.
    pub fn batch(mut self, class: &str, on: bool) -> Self {
        self.overrides(class).batch = Some(on);
        self
    }

    /// Shard instances of `class` by the key read through `key_getter`,
    /// split into `modulo` shards.
    ///
    /// # Panics
    /// When `modulo` is 0 (an empty shard space places nothing).
    pub fn shard(mut self, class: &str, key_getter: &str, modulo: u32) -> Self {
        assert!(modulo > 0, "shard modulo must be positive");
        self.overrides(class).shard = Some(ShardSpec {
            key_getter: key_getter.to_owned(),
            modulo,
        });
        self
    }

    /// Allow (or forbid) serving getters of `class` from the nearest live
    /// replica instead of the owner.
    pub fn replica_reads(mut self, class: &str, on: bool) -> Self {
        self.overrides(class).replica_reads = Some(on);
        self
    }

    /// Parse the policy text format:
    ///
    /// ```text
    /// # comments and blank lines are ignored
    /// default protocol RMI|SOAP|CORBA
    /// default statics node<N>
    /// default place creator|node<N>
    /// default cache on|off
    /// default replicate <K>
    /// default batch on|off
    /// class <Name> place creator|node<N>
    /// class <Name> statics node<N>
    /// class <Name> protocol RMI|SOAP|CORBA
    /// class <Name> cache on|off
    /// class <Name> replicate <K>
    /// class <Name> batch on|off
    /// class <Name> shard by <getter> modulo <N>
    /// class <Name> reads from replicas
    /// ```
    ///
    /// # Errors
    /// [`PolicyParseError`] with the offending line.
    pub fn parse(text: &str) -> Result<Self, PolicyParseError> {
        let mut policy = StaticPolicy::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: &str| PolicyParseError {
                line: i + 1,
                message: message.to_owned(),
            };
            let node = |w: &str| parse_node(w).ok_or_else(|| err("bad node"));
            let placement = |w: &str| parse_placement(w).ok_or_else(|| err("bad placement"));
            let switch = |w: &str| parse_switch(w).ok_or_else(|| err("bad switch"));
            let factor = |w: &str| w.parse().map_err(|_| err("bad replication factor"));
            let words: Vec<&str> = line.split_whitespace().collect();
            // Every directive is the builder call of the same name, so text
            // and code cannot build different policies.
            policy = match words.as_slice() {
                ["default", "protocol", p] => policy.default_protocol(p),
                ["default", "statics", n] => policy.default_statics(node(n)?),
                ["default", "place", w] => policy.default_placement(placement(w)?),
                ["default", "cache", w] => policy.default_cache(switch(w)?),
                ["default", "replicate", k] => policy.default_replicate(factor(k)?),
                ["default", "batch", w] => policy.default_batch(switch(w)?),
                ["class", name, "place", w] => policy.place(name, placement(w)?),
                ["class", name, "statics", n] => policy.statics(name, node(n)?),
                ["class", name, "protocol", p] => policy.with_protocol(name, p),
                ["class", name, "cache", w] => policy.cache(name, switch(w)?),
                ["class", name, "replicate", k] => policy.replicate(name, factor(k)?),
                ["class", name, "batch", w] => policy.batch(name, switch(w)?),
                ["class", name, "shard", "by", getter, "modulo", m] => {
                    let modulo = m.parse().ok().filter(|&m: &u32| m > 0);
                    policy.shard(name, getter, modulo.ok_or_else(|| err("bad shard modulo"))?)
                }
                ["class", name, "reads", "from", "replicas"] => policy.replica_reads(name, true),
                _ => return Err(err("unrecognised directive")),
            };
        }
        Ok(policy)
    }

    /// Render the policy back to the text format accepted by
    /// [`StaticPolicy::parse`] (rules sorted for determinism):
    /// `parse(p.to_text())` reproduces `p`.
    pub fn to_text(&self) -> String {
        // A default switch that is off (a factor that is 0) is the library
        // default and is not rendered.
        let d = &self.default;
        let default = Overrides {
            protocol: Some(d.protocol.clone()),
            statics: Some(d.statics),
            place: Some(self.place),
            cache: Some(d.cache).filter(|&on| on),
            replicate: Some(d.replicas).filter(|&k| k > 0),
            batch: Some(d.batch).filter(|&on| on),
            ..Overrides::default()
        };
        let mut lines: Vec<String> = Vec::new();
        for (class, rule) in &self.rules {
            let of_class = |d| format!("class {class} {d}");
            lines.extend(rule.directives().into_iter().map(of_class));
        }
        lines.sort();
        let mut out = String::new();
        let defaults = default
            .directives()
            .into_iter()
            .map(|d| format!("default {d}"));
        for line in defaults.chain(lines) {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

fn parse_node(word: &str) -> Option<NodeId> {
    word.strip_prefix("node")?.parse().ok().map(NodeId)
}

fn parse_placement(word: &str) -> Option<Placement> {
    if word == "creator" {
        Some(Placement::Creator)
    } else {
        parse_node(word).map(Placement::Node)
    }
}

fn parse_switch(word: &str) -> Option<bool> {
    match word {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    }
}

impl DistributionPolicy for StaticPolicy {
    fn instance_node(&self, class: &str, creating_node: NodeId) -> NodeId {
        let stated = self.rules.get(class).and_then(|o| o.place);
        match stated.unwrap_or(self.place) {
            Placement::Node(n) => n,
            Placement::Creator => creating_node,
        }
    }

    fn rule(&self, class: &str) -> ClassRule {
        match self.rules.get(class) {
            Some(overrides) => overrides.over(&self.default),
            None => self.default.clone(),
        }
    }
}

/// Load-spreading policy: each `make()` places the new instance on the
/// next node round-robin, regardless of where the creator runs — the
/// classic "scale out a stateless pool" deployment. Statics stay on node 0.
///
/// # Example
///
/// ```
/// use rafda_policy::{DistributionPolicy, RoundRobinPolicy};
/// use rafda_net::NodeId;
///
/// let p = RoundRobinPolicy::new(3, "RMI");
/// let first = p.instance_node("Worker", NodeId(0));
/// let second = p.instance_node("Worker", NodeId(0));
/// let third = p.instance_node("Worker", NodeId(0));
/// let fourth = p.instance_node("Worker", NodeId(0));
/// assert_ne!(first, second);
/// assert_eq!(first, fourth); // wraps around three nodes
/// ```
#[derive(Debug)]
pub struct RoundRobinPolicy {
    nodes: u32,
    protocol: String,
    next: std::cell::Cell<u32>,
}

impl RoundRobinPolicy {
    /// Spread instances over `nodes` nodes, proxying with `protocol`.
    pub fn new(nodes: u32, protocol: &str) -> Self {
        RoundRobinPolicy {
            nodes: nodes.max(1),
            protocol: protocol.to_owned(),
            next: std::cell::Cell::new(0),
        }
    }
}

impl DistributionPolicy for RoundRobinPolicy {
    fn instance_node(&self, _class: &str, _creating_node: NodeId) -> NodeId {
        let n = self.next.get();
        self.next.set((n + 1) % self.nodes);
        NodeId(n)
    }

    fn rule(&self, _class: &str) -> ClassRule {
        ClassRule {
            protocol: self.protocol.clone(),
            ..ClassRule::default()
        }
    }
}

/// Parameters of the adaptive affinity loop run by the runtime's
/// `Cluster::adapt`: an exported object is migrated to its dominant caller
/// when it has seen at least `min_calls` calls and the dominant remote
/// caller accounts for at least `min_fraction` of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffinityConfig {
    /// Minimum observed calls before considering migration.
    pub min_calls: u64,
    /// Minimum fraction of calls from the dominant remote caller.
    pub min_fraction: f64,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            min_calls: 16,
            min_fraction: 0.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_policy_keeps_everything_at_creator() {
        let p = StaticPolicy::new();
        assert_eq!(p.instance_node("C", NodeId(3)), NodeId(3));
        assert_eq!(p.rule("C"), ClassRule::default());
        assert_eq!(ClassRule::default().statics, NodeId(0));
        assert_eq!(ClassRule::default().protocol, "RMI");
    }

    #[test]
    fn builder_rules_override_defaults() {
        let p = StaticPolicy::new()
            .default_protocol("CORBA")
            .default_statics(NodeId(2))
            .place("C", Placement::Node(NodeId(1)))
            .statics("C", NodeId(1))
            .with_protocol("C", "SOAP");
        assert_eq!(p.instance_node("C", NodeId(0)), NodeId(1));
        assert_eq!(p.instance_node("Other", NodeId(5)), NodeId(5));
        assert_eq!(p.rule("C").statics, NodeId(1));
        assert_eq!(p.rule("Other").statics, NodeId(2));
        assert_eq!(p.protocol("C"), "SOAP");
        assert_eq!(p.protocol("Other"), "CORBA");
    }

    #[test]
    fn parse_full_grammar() {
        let p = StaticPolicy::parse(
            "# policy\n\
             default protocol CORBA\n\
             default statics node3\n\
             default place node1\n\
             \n\
             class A place creator\n\
             class B statics node2\n\
             class B protocol SOAP\n",
        )
        .unwrap();
        assert_eq!(p.instance_node("A", NodeId(9)), NodeId(9));
        assert_eq!(p.instance_node("Z", NodeId(9)), NodeId(1));
        assert_eq!(p.rule("B").statics, NodeId(2));
        assert_eq!(p.rule("A").statics, NodeId(3));
        assert_eq!(p.protocol("B"), "SOAP");
        assert_eq!(p.protocol("A"), "CORBA");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = StaticPolicy::parse("default protocol RMI\nclass A dance node1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let err = StaticPolicy::parse("class A place nodeX\n").unwrap_err();
        assert_eq!(err.message, "bad placement");
    }

    #[test]
    fn to_text_parse_roundtrip() {
        let p = StaticPolicy::new()
            .default_protocol("SOAP")
            .default_statics(NodeId(3))
            .default_placement(Placement::Node(NodeId(1)))
            .place("A", Placement::Creator)
            .place("B", Placement::Node(NodeId(2)))
            .statics("B", NodeId(2))
            .with_protocol("C", "CORBA")
            .cache("A", true)
            .cache("C", false);
        let text = p.to_text();
        let q = StaticPolicy::parse(&text).unwrap();
        for class in ["A", "B", "C", "Unlisted"] {
            for node in [NodeId(0), NodeId(5)] {
                assert_eq!(p.instance_node(class, node), q.instance_node(class, node));
            }
            assert_eq!(p.rule(class), q.rule(class));
        }
    }

    #[test]
    fn cache_rules_parse_and_default_off() {
        let p = StaticPolicy::parse(
            "default cache on\n\
             class Hot cache on\n\
             class Cold cache off\n",
        )
        .unwrap();
        assert!(p.cacheable("Hot"));
        assert!(!p.cacheable("Cold"));
        assert!(p.cacheable("Unlisted"), "default cache on applies");

        let q = StaticPolicy::new().cache("Hot", true);
        assert!(q.cacheable("Hot"));
        assert!(!q.cacheable("Unlisted"), "caching is opt-in");
        assert!(!ClassRule::default().cache, "library default is off");

        let err = StaticPolicy::parse("class A cache maybe\n").unwrap_err();
        assert_eq!(err.message, "bad switch");
    }

    #[test]
    fn replicate_rules_parse_and_default_zero() {
        let p = StaticPolicy::parse(
            "default replicate 1\n\
             class Vital replicate 2\n\
             class Cheap replicate 0\n",
        )
        .unwrap();
        assert_eq!(p.replicas("Vital"), 2);
        assert_eq!(p.replicas("Cheap"), 0);
        assert_eq!(p.replicas("Unlisted"), 1, "default replicate 1 applies");

        let q = StaticPolicy::new().replicate("Vital", 2);
        assert_eq!(q.replicas("Vital"), 2);
        assert_eq!(q.replicas("Unlisted"), 0, "replication is opt-in");
        assert_eq!(ClassRule::default().replicas, 0, "library default is 0");

        let err = StaticPolicy::parse("class A replicate many\n").unwrap_err();
        assert_eq!(err.message, "bad replication factor");
        let err = StaticPolicy::parse("default replicate -1\n").unwrap_err();
        assert_eq!(err.message, "bad replication factor");
    }

    #[test]
    fn replicate_rules_survive_to_text_roundtrip() {
        let p = StaticPolicy::new()
            .default_replicate(1)
            .replicate("A", 2)
            .replicate("B", 0);
        let text = p.to_text();
        assert!(text.contains("default replicate 1"), "{text}");
        assert!(text.contains("class A replicate 2"), "{text}");
        let q = StaticPolicy::parse(&text).unwrap();
        for class in ["A", "B", "Unlisted"] {
            assert_eq!(p.rule(class), q.rule(class));
        }
    }

    #[test]
    fn batch_rules_parse_and_default_off() {
        let p = StaticPolicy::parse(
            "default batch on\n\
             class Chatty batch on\n\
             class Sync batch off\n",
        )
        .unwrap();
        assert!(p.rule("Chatty").batch);
        assert!(!p.rule("Sync").batch);
        assert!(p.rule("Unlisted").batch, "default batch on applies");

        let q = StaticPolicy::new().batch("Chatty", true);
        assert!(q.rule("Chatty").batch);
        assert!(!q.rule("Unlisted").batch, "batching is opt-in");
        assert!(!ClassRule::default().batch, "library default is off");

        let err = StaticPolicy::parse("class A batch sometimes\n").unwrap_err();
        assert_eq!(err.message, "bad switch");
    }

    #[test]
    fn batch_rules_survive_to_text_roundtrip() {
        let p = StaticPolicy::new()
            .default_batch(true)
            .batch("A", false)
            .batch("B", true);
        let text = p.to_text();
        assert!(text.contains("default batch on"), "{text}");
        assert!(text.contains("class A batch off"), "{text}");
        let q = StaticPolicy::parse(&text).unwrap();
        for class in ["A", "B", "Unlisted"] {
            assert_eq!(p.rule(class), q.rule(class));
        }
        let plain = StaticPolicy::new().to_text();
        assert!(!plain.contains("batch"), "default-off policy omits batch");
    }

    #[test]
    fn shard_rules_parse_and_default_none() {
        let p = StaticPolicy::parse(
            "class Account shard by get_owner modulo 4\n\
             class Session shard by get_id modulo 2\n",
        )
        .unwrap();
        assert_eq!(
            p.rule("Account").shard,
            Some(ShardSpec {
                key_getter: "get_owner".to_owned(),
                modulo: 4
            })
        );
        assert_eq!(p.rule("Session").shard.unwrap().modulo, 2);
        assert_eq!(p.rule("Unlisted").shard, None, "sharding is opt-in");
        assert_eq!(ClassRule::default().shard, None, "library default is None");

        let err = StaticPolicy::parse("class A shard by get_k modulo zero\n").unwrap_err();
        assert_eq!(err.message, "bad shard modulo");
        let err = StaticPolicy::parse("class A shard by get_k modulo 0\n").unwrap_err();
        assert_eq!(err.message, "bad shard modulo");
        let err = StaticPolicy::parse("ok\nclass A shard get_k modulo 2\n").unwrap_err();
        assert_eq!(err.line, 1, "first bad line reported");
    }

    #[test]
    fn replica_read_rules_parse_and_default_off() {
        let p = StaticPolicy::parse(
            "class Catalog replicate 2\n\
             class Catalog reads from replicas\n",
        )
        .unwrap();
        assert!(p.rule("Catalog").replica_reads);
        assert!(!p.rule("Unlisted").replica_reads, "replica reads opt-in");
        assert!(
            !ClassRule::default().replica_reads,
            "library default is off"
        );

        let q = StaticPolicy::new().replica_reads("Catalog", true);
        assert!(q.rule("Catalog").replica_reads);
        let q = q.replica_reads("Catalog", false);
        assert!(!q.rule("Catalog").replica_reads);

        let err = StaticPolicy::parse("class A reads from owner\n").unwrap_err();
        assert_eq!(err.message, "unrecognised directive");
    }

    #[test]
    fn shard_and_replica_read_rules_survive_to_text_roundtrip() {
        let p = StaticPolicy::new()
            .shard("Account", "get_owner", 4)
            .replicate("Catalog", 2)
            .replica_reads("Catalog", true)
            .replica_reads("Mutable", false);
        let text = p.to_text();
        assert!(
            text.contains("class Account shard by get_owner modulo 4"),
            "{text}"
        );
        assert!(text.contains("class Catalog reads from replicas"), "{text}");
        assert!(!text.contains("Mutable"), "false flag omitted: {text}");
        let q = StaticPolicy::parse(&text).unwrap();
        for class in ["Account", "Catalog", "Mutable", "Unlisted"] {
            assert_eq!(p.rule(class), q.rule(class));
        }
    }

    /// Builder and text are two spellings of one policy, for every rule
    /// kind — also where one class carries several kinds (`A`, `G`), which
    /// share one override rule.
    #[test]
    fn builder_calls_and_parsed_directives_render_the_same_text() {
        let built = StaticPolicy::new()
            .default_protocol("CORBA")
            .default_statics(NodeId(3))
            .default_placement(Placement::Node(NodeId(1)))
            .default_cache(true)
            .default_replicate(2)
            .default_batch(true)
            .place("A", Placement::Creator)
            .statics("B", NodeId(2))
            .with_protocol("C", "SOAP")
            .cache("D", false)
            .replicate("E", 0)
            .batch("F", false)
            .shard("G", "get_k", 8)
            .replica_reads("H", true)
            .cache("A", true)
            .replicate("G", 1)
            .replica_reads("G", true)
            .place("A", Placement::Node(NodeId(4)));
        let text = "\
default protocol CORBA
default statics node3
default place node1
default cache on
default replicate 2
default batch on
class A cache on
class A place node4
class B statics node2
class C protocol SOAP
class D cache off
class E replicate 0
class F batch off
class G reads from replicas
class G replicate 1
class G shard by get_k modulo 8
class H reads from replicas
";
        assert_eq!(built.to_text(), text);
        let parsed = StaticPolicy::parse(text).unwrap();
        assert_eq!(parsed.to_text(), text);
        // Each directive names its own decision, so their order is free.
        let shuffled: Vec<&str> = text.lines().rev().collect();
        let reparsed = StaticPolicy::parse(&shuffled.join("\n")).unwrap();
        assert_eq!(reparsed.to_text(), text);
        assert_eq!(parsed.instance_node("A", NodeId(0)), NodeId(4));
        assert!(parsed.cacheable("A") && !parsed.cacheable("D") && parsed.cacheable("Z"));
        assert_eq!((parsed.replicas("G"), parsed.replicas("E")), (1, 0));
        // Defaults that restate the library default are not rendered.
        let plain = StaticPolicy::parse("default cache off\ndefault replicate 0\n").unwrap();
        assert_eq!(plain.to_text(), StaticPolicy::new().to_text());
    }

    #[test]
    fn round_robin_cycles_and_keeps_statics_fixed() {
        let p = RoundRobinPolicy::new(2, "SOAP");
        let seq: Vec<NodeId> = (0..4).map(|_| p.instance_node("C", NodeId(9))).collect();
        assert_eq!(seq, vec![NodeId(0), NodeId(1), NodeId(0), NodeId(1)]);
        let soap = ClassRule {
            protocol: "SOAP".to_owned(),
            ..ClassRule::default()
        };
        assert_eq!(p.rule("C"), soap);
    }

    #[test]
    fn affinity_defaults_are_sane() {
        let c = AffinityConfig::default();
        assert!(c.min_calls > 0);
        assert!(c.min_fraction > 0.5 && c.min_fraction <= 1.0);
    }
}
