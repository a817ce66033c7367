//! Exact heap-allocation budget of one `transform_corpus` op: clone a
//! 500-class JDK-shaped corpus, transform it for RMI, SOAP and CORBA, and
//! verify the result. The counting global allocator the host profile also
//! uses (`examples/counting_alloc.rs`) counts this thread's allocation
//! calls, so the counts are the same in every process and in debug and
//! release builds. The limits are means over the sixteen seed-42 corpora
//! the workload rotates over.

use rafda_classmodel::{verify_universe, ClassUniverse};
use rafda_corpus::{generate_jdk, JdkProfile};
use rafda_transform::Transformer;

#[path = "../../../examples/counting_alloc.rs"]
mod counting;

/// Run `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = counting::allocations();
    let out = f();
    (out, counting::allocations() - before)
}

#[test]
fn a_transform_corpus_op_stays_within_its_allocation_budget() {
    const CORPORA: u64 = 16;
    let (mut clone, mut op, mut verify) = (0, 0, 0);
    for k in 0..CORPORA {
        let mut profile = JdkProfile::scaled(500);
        profile.seed = 42 * CORPORA + k;
        let mut corpus = ClassUniverse::new();
        generate_jdk(&mut corpus, &profile);

        let (mut u, n) = counted(|| corpus.clone());
        clone += n;
        let (verdict, n) = counted(|| {
            let transformer = Transformer::new().protocols(&["RMI", "SOAP", "CORBA"]);
            transformer
                .run(&mut u)
                .map(drop)
                .map_err(|e| e.to_string())?;
            verify_universe(&u).map_err(|e| e.to_string())
        });
        verdict.unwrap();
        op += n;
        let (verdict, n) = counted(|| verify_universe(&u));
        verdict.unwrap();
        verify += n;
    }
    let mean = |total: u64| total as f64 / CORPORA as f64;
    let (clone, op, verify) = (mean(clone), mean(op), mean(verify));
    eprintln!("allocations per op: clone {clone}, run + verify {op}, verify {verify}");
    assert!(op <= 30_000.0, "Transformer::run + verify_universe: {op}");
    assert!(clone <= 4_000.0, "ClassUniverse::clone: {clone}");
    assert!(verify <= 400.0, "verify_universe: {verify}");
}
