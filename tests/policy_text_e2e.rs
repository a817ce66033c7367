//! Policy capture end-to-end: the paper's long-term goal is "a complete
//! system for deciding and capturing distribution policy" (Section 4). The
//! text format of `StaticPolicy` is that capture mechanism — this test
//! drives a whole deployment from a policy document alone.

use rafda::classmodel::sample;
use rafda::{Application, DistributionPolicy, NodeId, StaticPolicy, Value};

const POLICY: &str = "
# Deployment: compute tier on node 1, data tier on node 2.
default protocol RMI
default statics node1
default place creator

class Y place node2
class Y protocol SOAP
class Z place node1
class X statics node1
";

#[test]
fn deployment_follows_the_policy_document() {
    let mut app = Application::new();
    sample::build_figure2(app.universe_mut());
    let policy = StaticPolicy::parse(POLICY).expect("policy parses");
    let cluster = app
        .transform(&["RMI", "SOAP"])
        .unwrap()
        .deploy(3, 11, Box::new(policy));

    // Instances of Y land on node 2 (and speak SOAP), Z on node 1.
    let y = cluster
        .new_instance(NodeId(0), "Y", 0, vec![Value::Int(3)])
        .unwrap();
    assert_eq!(cluster.location_of(NodeId(0), &y), Some(NodeId(2)));
    let yh = y.as_ref_handle().unwrap();
    let y_class = cluster.vm(NodeId(0)).class_of(yh).unwrap();
    assert_eq!(
        &*cluster.universe().class(y_class).name,
        "Y_O_Proxy_SOAP",
        "protocol selection follows the document"
    );

    let z = cluster
        .new_instance(NodeId(0), "Z", 0, vec![Value::Int(5)])
        .unwrap();
    assert_eq!(cluster.location_of(NodeId(0), &z), Some(NodeId(1)));

    // Statics of X resolve on node 1; behaviour unchanged.
    assert_eq!(
        cluster
            .call_static(NodeId(0), "X", "p", vec![Value::Int(6)])
            .unwrap(),
        Value::Int(42)
    );
    assert!(cluster.network().stats().messages > 0);
}

#[test]
fn round_tripped_policy_behaves_identically() {
    let policy = StaticPolicy::parse(POLICY).unwrap();
    let reparsed = StaticPolicy::parse(&policy.to_text()).unwrap();
    for class in ["X", "Y", "Z", "Unlisted"] {
        assert_eq!(policy.rule(class), reparsed.rule(class), "{class}");
    }

    let deploy = |p: StaticPolicy| {
        let mut app = Application::new();
        sample::build_figure2(app.universe_mut());
        let cluster = app
            .transform(&["RMI", "SOAP"])
            .unwrap()
            .deploy(3, 11, Box::new(p));
        let y = cluster
            .new_instance(NodeId(0), "Y", 0, vec![Value::Int(3)])
            .unwrap();
        (
            cluster.location_of(NodeId(0), &y),
            cluster
                .call_static(NodeId(0), "X", "p", vec![Value::Int(6)])
                .unwrap(),
        )
    };
    assert_eq!(deploy(policy), deploy(reparsed));
}

#[test]
fn policy_errors_are_reported_with_line_numbers() {
    let err = StaticPolicy::parse("default protocol RMI\nclass X teleport node9\n").unwrap_err();
    assert_eq!(err.line, 2);
}
