//! Error-display consistency across the workspace (ISSUE 5): every
//! crate error renders a lowercase, no-trailing-period message, and the
//! unified `advsgm::api::Error` names the originating layer while
//! preserving the source chain. The exact strings below are snapshots —
//! a change here is a user-visible change and should be deliberate.

use std::error::Error as _;

use advsgm::api::Error;
use advsgm::attack::AttackError;
use advsgm::baselines::BaselineError;
use advsgm::core::CoreError;
use advsgm::eval::EvalError;
use advsgm::graph::GraphError;
use advsgm::linalg::LinalgError;
use advsgm::privacy::PrivacyError;
use advsgm::store::StoreError;

/// One representative error per layer with its exact expected rendering
/// through `advsgm::api::Error`.
fn snapshots() -> Vec<(Error, &'static str)> {
    vec![
        (
            Error::from(GraphError::EmptyGraph { op: "train" }),
            "graph: train requires a non-empty graph",
        ),
        (
            Error::from(GraphError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "gone",
            ))),
            "graph: i/o error: gone",
        ),
        (
            Error::from(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (3, 1),
                rhs: (4, 1),
            }),
            "linalg: dimension mismatch in dot: lhs 3x1 vs rhs 4x1",
        ),
        (
            Error::from(PrivacyError::InvalidParameter {
                name: "sigma",
                reason: "must be positive".into(),
            }),
            "privacy: invalid parameter sigma: must be positive",
        ),
        (
            Error::from(CoreError::Config {
                field: "dim",
                reason: "embedding dimension must be positive".into(),
            }),
            "core: invalid configuration dim: embedding dimension must be positive",
        ),
        (
            Error::from(BaselineError::Config {
                field: "hops",
                reason: "zero".into(),
            }),
            "baselines: invalid baseline configuration hops: zero",
        ),
        (
            Error::from(EvalError::DidNotConverge {
                algorithm: "affinity propagation",
                iterations: 200,
            }),
            "eval: affinity propagation did not converge after 200 iterations",
        ),
        (
            Error::from(StoreError::Truncated {
                expected: 100,
                found: 60,
            }),
            "store: truncated store file: header implies 100 bytes, found 60",
        ),
        (
            Error::from(StoreError::BadMagic {
                found: *b"AEMB",
                expected: *b"AIDX",
            }),
            "store: unrecognised file magic [65, 69, 77, 66] (expected b\"AIDX\" for an .aidx ANN index)",
        ),
        (
            Error::from(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "denied",
            )),
            "io: denied",
        ),
        (
            advsgm::api::Epsilon::new(-1.0).unwrap_err(),
            "api: invalid parameter epsilon: privacy budget must be finite and positive, got -1",
        ),
        (
            advsgm::api::Delta::new(2.0).unwrap_err(),
            "api: invalid parameter delta: failure probability must be in (0, 1), got 2",
        ),
        (
            advsgm::api::NoiseSigma::new(0.0).unwrap_err(),
            "api: invalid parameter sigma: noise multiplier must be finite and positive, got 0",
        ),
        (
            advsgm::api::Dim::new(0).unwrap_err(),
            "api: invalid parameter dim: embedding dimension must be positive, got 0",
        ),
        (
            Error::from(AttackError::invalid(
                "targets",
                "need at least one target edge",
            )),
            "attack: invalid audit parameter targets: need at least one target edge",
        ),
        (
            Error::from(AttackError::release("engine exploded")),
            "attack: release failed: engine exploded",
        ),
    ]
}

#[test]
fn unified_error_names_the_originating_layer() {
    for (err, expected) in snapshots() {
        assert_eq!(err.to_string(), expected);
    }
}

#[test]
fn messages_are_lowercase_with_no_trailing_period() {
    // The workspace-wide display convention, checked both on the unified
    // error and on the raw layer errors it wraps.
    let mut all: Vec<String> = snapshots().iter().map(|(e, _)| e.to_string()).collect();
    all.extend(
        snapshots()
            .iter()
            .filter_map(|(e, _)| e.source().map(|s| s.to_string())),
    );
    // Additional layer errors not in the snapshot menu.
    all.push(
        GraphError::Parse {
            line: 3,
            reason: "bad token".into(),
        }
        .to_string(),
    );
    all.push(
        StoreError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        }
        .to_string(),
    );
    all.push(
        StoreError::BadMagic {
            found: *b"PNG\0",
            expected: *b"AEMB",
        }
        .to_string(),
    );
    all.push(
        PrivacyError::BudgetExhausted {
            delta_spent: 2e-5,
            delta_target: 1e-5,
        }
        .to_string(),
    );
    all.push(
        CoreError::Checkpoint {
            reason: "graph fingerprint differs".into(),
        }
        .to_string(),
    );
    all.push(
        LinalgError::IndexOutOfBounds {
            axis: "row",
            index: 9,
            len: 3,
        }
        .to_string(),
    );
    all.push(
        EvalError::InvalidInput {
            reason: "empty embedding set".into(),
        }
        .to_string(),
    );
    for msg in &all {
        let first = msg.chars().next().unwrap();
        assert!(
            !first.is_alphabetic() || first.is_lowercase(),
            "message must start lowercase: {msg:?}"
        );
        assert!(
            !msg.trim_end().ends_with('.'),
            "message must not end with a period: {msg:?}"
        );
    }
}

#[test]
fn source_chain_is_preserved_through_the_facade() {
    // Two hops: api::Error -> StoreError -> io::Error.
    let inner = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied");
    let err = Error::from(StoreError::Io(inner));
    let store_layer = err.source().expect("store layer present");
    assert!(store_layer.to_string().contains("i/o error: denied"));
    let io_layer = store_layer.source().expect("io layer present");
    assert_eq!(io_layer.to_string(), "denied");
    assert!(io_layer.source().is_none());

    // Api-level parameter errors are leaves.
    let leaf = advsgm::api::Epsilon::new(f64::NAN).unwrap_err();
    assert!(leaf.source().is_none());
}
