//! Elide-plane integration tests: the dataflow pass's per-site fact
//! bitmap is dynamically sound over the sample corpus — the auditor,
//! which runs checked execution and reports every trap at a site the
//! facts claim cannot trap, sees nothing fire — and the auditor does
//! fire, at exactly the right kind and address, when a fact bit is
//! planted on a site that really traps.

use dir::encode::SchemeKind;
use dir::exec::{Limits, Trap};
use dir::facts::SiteFacts;
use dir::isa::Inst;
use dir::program::Program;

fn sample_programs() -> Vec<(&'static str, dir::Program)> {
    hlr::programs::ALL
        .iter()
        .map(|s| {
            (
                s.name,
                dir::compiler::compile(&s.compile().expect("samples compile")),
            )
        })
        .collect()
}

fn compile(src: &str) -> Program {
    dir::compiler::compile(&hlr::compile(src).expect("source compiles"))
}

/// Every address in `program` whose instruction satisfies `pred`.
fn sites(program: &Program, pred: impl Fn(Inst) -> bool) -> Vec<u32> {
    (0..program.code.len() as u32)
        .filter(|&pc| pred(program.code[pc as usize]))
        .collect()
}

fn is_divide(inst: Inst) -> bool {
    matches!(inst, Inst::Bin(op) if op.traps_on_zero())
}

/// Audit mode evaluates the guard at every elided site: no guard fires
/// anywhere in the corpus, and the audited run equals the checked run.
#[test]
fn audit_mode_finds_no_unsound_site() {
    for (name, program) in sample_programs() {
        let verified = analyze::verify(&program, SchemeKind::ByteAligned.encode(&program))
            .expect("corpus verifies clean");
        let facts = verified.facts();
        let checked = dir::exec::run_with(&program, Limits::default(), false);
        let (audited, verdict) =
            dir::exec::run_audit_with(&program, facts, Limits::default(), false);
        assert!(
            verdict.is_sound(),
            "{name}: elided guards fired: {verdict:?}"
        );
        assert_eq!(audited, checked, "{name}: dir audit");
    }
}

/// A hand-planted `div_ok` bit on a divide by zero is reported as one
/// divisor violation at that address, and the audited run still ends in
/// the checked run's trap.
#[test]
fn audit_reports_a_planted_div_fact() {
    let program = compile("proc main() begin write 1 / 0; end");
    let [pc] = sites(&program, is_divide)[..] else {
        panic!("one divide in {:?}", program.code)
    };
    let mut facts = SiteFacts::empty(program.code.len() as u32);
    facts.set_div_ok(pc);
    let checked = dir::exec::run_with(&program, Limits::default(), false);
    assert_eq!(checked, Err(Trap::DivByZero));
    let (audited, verdict) = dir::exec::run_audit_with(&program, &facts, Limits::default(), false);
    assert_eq!(audited, checked);
    assert!(!verdict.is_sound());
    assert_eq!(verdict.div_violations, 1);
    assert_eq!(verdict.idx_violations, 0);
    assert_eq!(verdict.sites, vec![pc]);
}

/// A hand-planted `idx_ok` bit on an out-of-bounds load is reported as
/// one index violation at that address, and the audited run still ends
/// in the checked run's trap.
#[test]
fn audit_reports_a_planted_idx_fact() {
    let program = compile("proc main() begin int a[3]; write a[3]; end");
    let [pc] = sites(&program, |i| matches!(i, Inst::LoadArrLocal { .. }))[..] else {
        panic!("one array load in {:?}", program.code)
    };
    let mut facts = SiteFacts::empty(program.code.len() as u32);
    facts.set_idx_ok(pc);
    let checked = dir::exec::run_with(&program, Limits::default(), false);
    assert_eq!(checked, Err(Trap::IndexOutOfBounds { index: 3, len: 3 }));
    let (audited, verdict) = dir::exec::run_audit_with(&program, &facts, Limits::default(), false);
    assert_eq!(audited, checked);
    assert!(!verdict.is_sound());
    assert_eq!(verdict.div_violations, 0);
    assert_eq!(verdict.idx_violations, 1);
    assert_eq!(verdict.sites, vec![pc]);
}

/// Fact bits on every address of a program whose guards never fire —
/// divides by nonzero, in-bounds indexing — leave the audit sound, and
/// so do bits on the non-trapping sites of a program that traps
/// elsewhere.
#[test]
fn audit_ignores_planted_facts_that_never_fire() {
    let quiet = compile(
        "proc main() begin int a[3]; int i;
            for i := 0 to 2 do a[i] := 12 / (i + 1);
            write a[2] % 5;
        end",
    );
    let len = quiet.code.len() as u32;
    let mut facts = SiteFacts::empty(len);
    for pc in 0..len {
        facts.set_div_ok(pc);
        facts.set_idx_ok(pc);
    }
    let checked = dir::exec::run_with(&quiet, Limits::default(), false);
    assert_eq!(checked.as_ref().map(|(out, _)| out.clone()), Ok(vec![4]));
    let (audited, verdict) = dir::exec::run_audit_with(&quiet, &facts, Limits::default(), false);
    assert!(verdict.is_sound(), "{verdict:?}");
    assert_eq!(audited, checked);

    let trapping = compile("proc main() begin int x; x := 6; write x / 3; write 1 / 0; end");
    let [quiet_div, _] = sites(&trapping, is_divide)[..] else {
        panic!("two divides in {:?}", trapping.code)
    };
    let mut facts = SiteFacts::empty(trapping.code.len() as u32);
    facts.set_div_ok(quiet_div);
    let checked = dir::exec::run_with(&trapping, Limits::default(), false);
    assert_eq!(checked, Err(Trap::DivByZero));
    let (audited, verdict) = dir::exec::run_audit_with(&trapping, &facts, Limits::default(), false);
    assert!(verdict.is_sound(), "{verdict:?}");
    assert_eq!(audited, checked);
}
