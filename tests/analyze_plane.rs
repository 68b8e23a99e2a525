//! Analyze-plane integration tests: the load-time verifier accepts the
//! whole sample corpus under every encoding scheme, rejects each
//! known-bad fixture with the exact diagnostic code, and the `Verified`
//! witness refuses an image that does not encode its program.

use analyze::{DiagCode, Severity};
use dir::encode::{fixtures, SchemeKind};
use dir::program::ProcInfo;

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

/// Every compiler-produced image of every sample verifies clean under
/// every encoding scheme: no error-severity diagnostic anywhere.
#[test]
fn corpus_is_clean_under_every_scheme() {
    for (name, program) in sample_programs() {
        for scheme in SchemeKind::all() {
            let report = analyze::analyze(&program, &scheme.encode(&program));
            assert!(
                report.is_clean(),
                "{name} under {scheme}:\n{}",
                report.render()
            );
            assert_eq!(report.count(Severity::Error), 0, "{name} under {scheme}");
        }
    }
}

/// A minimal structurally well-formed program whose body starts with
/// `bad` — the vehicle for defects no compiler output contains.
fn bad_program(bad: dir::Inst) -> dir::Program {
    dir::Program {
        code: vec![
            dir::Inst::Call(0),
            dir::Inst::Halt,
            bad,
            dir::Inst::PushConst(0),
            dir::Inst::Pop,
            dir::Inst::Return,
        ],
        procs: vec![ProcInfo {
            name: "main".into(),
            entry: 2,
            end: 6,
            n_args: 0,
            frame_size: 1,
            returns_value: false,
        }],
        entry_proc: 0,
        globals_size: 0,
    }
}

/// Each defect class is rejected with its own diagnostic code, and
/// `verify` refuses to mint a witness for it.
#[test]
fn negative_fixtures_carry_exact_diagnostic_codes() {
    let cases = [
        (DiagCode::StackUnderflow, bad_program(dir::Inst::Pop)),
        (DiagCode::JumpOutOfRange, bad_program(dir::Inst::Jump(999))),
        (
            DiagCode::UninitializedLocal,
            bad_program(dir::Inst::PushLocal(0)),
        ),
        (DiagCode::BadCallee, bad_program(dir::Inst::Call(7))),
    ];
    for (expect, program) in cases {
        let image = SchemeKind::ByteAligned.encode(&program);
        let report = analyze::analyze(&program, &image);
        assert!(
            report.diagnostics.iter().any(|d| d.code == expect),
            "expected {} in:\n{}",
            expect.id(),
            report.render()
        );
        assert!(!report.is_clean());
        assert!(analyze::verify(&program, image).is_err());
    }
}

/// Corrupted encoded images are stopped by the codec pass at load time —
/// before any decode attempt could turn them into a mid-run trap.
#[test]
fn corrupt_images_fail_the_codec_pass() {
    let program = sample_programs().remove(0).1;
    for image in [
        fixtures::truncated_codebook(&program),
        fixtures::conflicting_codebook(&program),
        fixtures::oversized_field_width(&program),
    ] {
        let report = analyze::analyze(&program, &image);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == DiagCode::CodecDefect));
        assert!(analyze::verify(&program, image).is_err());
    }
}

/// An image that decodes fine but encodes a *different* program is
/// rejected: a witness always pins the image to the proved program.
#[test]
fn witness_refuses_a_mismatched_image() {
    let programs = sample_programs();
    let (_, a) = &programs[0];
    let (_, b) = &programs[1];
    let report = analyze::analyze(a, &SchemeKind::Packed.encode(b));
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == DiagCode::ImageMismatch));
    assert!(analyze::verify(a, SchemeKind::Packed.encode(b)).is_err());
}
