//! Property-based tests for the analysis pipelines.

use detect::static_analysis::{analyse, decode_escapes, preprocess, strip_comments};
use proplite::{run_cases, Rng};

/// Hex-encode every character of `s` as `\xNN` escapes.
fn hex_escape(s: &str) -> String {
    s.bytes().map(|b| format!("\\x{b:02x}")).collect()
}

/// Preprocessing never panics on arbitrary input.
#[test]
fn preprocess_total() {
    run_cases(256, 0xDE7E, |rng: &mut Rng| {
        let s = rng.any_string(0, 300);
        let _ = preprocess(&s);
    });
}

/// Comment stripping is idempotent.
#[test]
fn strip_comments_idempotent() {
    run_cases(256, 0xDE7F, |rng: &mut Rng| {
        let s = rng.ascii(0, 200);
        let once = strip_comments(&s);
        let twice = strip_comments(&once);
        assert_eq!(once, twice);
    });
}

/// Escape decoding recovers any ASCII identifier that was fully
/// hex-escaped — the deobfuscation guarantee the static analysis rests on.
#[test]
fn decode_recovers_hex_escaped_identifiers() {
    run_cases(256, 0xDE80, |rng: &mut Rng| {
        let ident =
            rng.string_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", 1, 20);
        let escaped = hex_escape(&ident);
        assert_eq!(decode_escapes(&escaped), ident);
    });
}

/// A hex-escaped webdriver probe is always found by the full pipeline,
/// regardless of surrounding code.
#[test]
fn hex_escaped_probe_always_found() {
    run_cases(256, 0xDE81, |rng: &mut Rng| {
        let prefix = rng.string_of("abcdefghijklmnopqrstuvwxyz ;=0123456789", 0, 40);
        let suffix = rng.string_of("abcdefghijklmnopqrstuvwxyz ;=0123456789", 0, 40);
        let probe = format!(
            "{prefix}\nvar flag = navigator['{}'];\n{suffix}",
            hex_escape("webdriver")
        );
        assert!(analyse(&probe).selenium);
    });
}

/// Scripts without any probe-related token never classify as detectors.
#[test]
fn clean_scripts_never_flagged() {
    run_cases(256, 0xDE82, |rng: &mut Rng| {
        // Alphabet excludes w/x/y/z so neither 'webdriver' nor any OpenWPM
        // property name can appear.
        let body = rng.string_of("abcdefghijklmnopqrstuv ;=(){}0123456789\n", 0, 300);
        assert!(!analyse(&body).is_detector());
    });
}

/// Comments can never *create* a finding: commenting out an arbitrary
/// line leaves a clean script clean.
#[test]
fn commented_probes_are_ignored() {
    run_cases(256, 0xDE83, |rng: &mut Rng| {
        let pad = rng.string_of("abcdefghijklmnopqrstuvwxyz ;", 0, 50);
        let src = format!("// navigator.webdriver {pad}\nvar x = 1;");
        assert!(!analyse(&src).selenium);
    });
}

#[test]
fn pipeline_matrix_matches_expected_coverage() {
    // Cross-check the Technique::expected_coverage contract for the static
    // half on every technique.
    for t in detect::Technique::all() {
        let src = detect::corpus::selenium_detector(*t, "https://bd.test/v");
        let (expect_static, _expect_dynamic) = t.expected_coverage();
        assert_eq!(
            analyse(&src).selenium,
            expect_static,
            "static coverage mismatch for {t:?}"
        );
    }
}
