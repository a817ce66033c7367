//! The paper's Figure 1, narrated: a shared document service (`C`) used by
//! an editor (`A`) and an indexer (`B`). The deployment starts fully local,
//! then the document is migrated to a second machine — the local instance
//! is rewritten in place into proxy `Cp` — and finally pulled back. The
//! example prints per-phase cost so the boundary change is visible.
//!
//! Run with: `cargo run -p rafda --example figure1_redistribution`

use rafda::classmodel::builder::{ClassBuilder, MethodBuilder};
use rafda::classmodel::{ClassKind, Field};
use rafda::{Application, NodeId, StaticPolicy, Ty, Value};

fn build() -> Application {
    let mut app = Application::new();
    let u = app.universe_mut();

    // class Document { int revision; String title; … }
    let doc = u.declare("Document", ClassKind::Class);
    {
        let mut cb = ClassBuilder::new(u, doc);
        let rev = cb.field(Field::new("revision", Ty::Int));
        let title = cb.field(Field::new("title", Ty::Str));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(doc, title);
        mb.load_this().const_int(0).put_field(doc, rev);
        mb.ret();
        cb.ctor(u, vec![Ty::Str], Some(mb.finish()));
        // int edit() { revision = revision + 1; return revision; }
        let mut mb = MethodBuilder::new(1);
        mb.load_this();
        mb.load_this().get_field(doc, rev);
        mb.const_int(1).add();
        mb.put_field(doc, rev);
        mb.load_this().get_field(doc, rev).ret_value();
        cb.method(u, "edit", vec![], Ty::Int, Some(mb.finish()));
        // String describe() { return title + "#" + revision; }
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(doc, title);
        mb.const_str("#");
        mb.add();
        mb.load_this().get_field(doc, rev);
        mb.unop(rafda::classmodel::UnOp::Convert("string"));
        mb.add();
        mb.ret_value();
        cb.method(u, "describe", vec![], Ty::Str, Some(mb.finish()));
        cb.finish(u);
    }

    // Editor and Indexer both hold the shared document.
    for name in ["Editor", "Indexer"] {
        let id = u.declare(name, ClassKind::Class);
        let mut cb = ClassBuilder::new(u, id);
        let f = cb.field(Field::new("doc", Ty::Object(doc)));
        let mut mb = MethodBuilder::new(2);
        mb.load_this().load_local(1).put_field(id, f).ret();
        cb.ctor(u, vec![Ty::Object(doc)], Some(mb.finish()));
        let edit_sig = u.sig("edit", vec![]);
        let mut mb = MethodBuilder::new(1);
        mb.load_this().get_field(id, f);
        mb.invoke(edit_sig, 0);
        mb.ret_value();
        cb.method(u, "touch", vec![], Ty::Int, Some(mb.finish()));
        cb.finish(u);
    }
    app
}

fn main() {
    let cluster = build().transform(&["RMI"]).expect("transformable").deploy(
        2,
        1,
        Box::new(StaticPolicy::new()),
    );
    let n0 = NodeId(0);
    let n1 = NodeId(1);
    let net = cluster.network();

    println!("== Phase 1: everything on node 0 (Figure 1, left) ==");
    let doc = cluster
        .new_instance(n0, "Document", 0, vec![Value::str("paper.tex")])
        .unwrap();
    let editor = cluster
        .new_instance(n0, "Editor", 0, vec![doc.clone()])
        .unwrap();
    let indexer = cluster
        .new_instance(n0, "Indexer", 0, vec![doc.clone()])
        .unwrap();
    for _ in 0..3 {
        cluster
            .call_method(n0, editor.clone(), "touch", vec![])
            .unwrap();
    }
    let local_msgs = net.stats().messages;
    println!(
        "  3 edits -> {}   (network messages so far: {local_msgs})",
        cluster
            .call_method(n0, doc.clone(), "describe", vec![])
            .unwrap()
    );

    println!("\n== Phase 2: migrate the document to node 1 (Figure 1, right) ==");
    let t0 = net.now();
    let handle = doc.as_ref_handle().unwrap();
    let event = cluster.migrate(n0, handle, n1).unwrap();
    println!("  {event}   (migration cost: {})", net.now() - t0);
    println!(
        "  document now lives on {:?}; editor/indexer untouched",
        cluster.location_of(n0, &doc).unwrap()
    );
    let t1 = net.now();
    cluster
        .call_method(n0, editor.clone(), "touch", vec![])
        .unwrap();
    cluster
        .call_method(n0, indexer.clone(), "touch", vec![])
        .unwrap();
    println!(
        "  2 more edits through the same references -> {}",
        cluster
            .call_method(n0, doc.clone(), "describe", vec![])
            .unwrap()
    );
    println!(
        "  remote phase: {} messages, {} per call round-trip",
        net.stats().messages - local_msgs,
        rafda::SimTime::from_ns((net.now() - t1).as_ns() / 3)
    );

    println!("\n== Phase 3: pull the document back (boundary reversal) ==");
    cluster.pull_local(n0, handle).unwrap();
    let msgs = net.stats().messages;
    cluster.call_method(n0, editor, "touch", vec![]).unwrap();
    cluster.call_method(n0, indexer, "touch", vec![]).unwrap();
    println!(
        "  2 edits after pulling local -> {}   (new network messages: {})",
        cluster
            .call_method(n0, doc.clone(), "describe", vec![])
            .unwrap(),
        net.stats().messages - msgs
    );
    println!("\nruntime stats: {:?}", cluster.stats());
}
