//! Counter-equivalence between the parallel and sequential backends of
//! the `Strategy::Bfs` search (the only engine with a level to fan out):
//! both must report byte-identical observability totals for the same
//! input, because the parallel frontier performs exactly the same
//! `analyse` calls and worker-thread counters merge at the sequential join.
//!
//! This file runs under both feature configurations in CI (`--features
//! parallel` is the default; `--no-default-features` forces `optimize` onto
//! the sequential path), so equality here pins the cross-build guarantee:
//! `explain_json` counter totals do not depend on the chosen backend.
//!
//! The best-first engine has one path, so what is pinned for it is which
//! counters a warm context moves (`warm_context_moves_only_structure_counters`).

use sqo_datalog::parser::{parse_constraint, parse_query};
use sqo_datalog::residue::ResidueSet;
use sqo_datalog::search::{self, SearchConfig, Strategy};
use sqo_datalog::transform::TransformContext;
use sqo_obs as obs;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes the tests in this binary: counter deltas are computed against
/// the process-global registry.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's university constraints at the Datalog level (Example 1 plus
/// enough extra ICs to keep several candidates live per search level, so
/// the parallel backend actually fans out).
fn university_ctx() -> TransformContext {
    let ics = [
        "ic IC1: Age > 30 <- faculty(Sec, Fac, Age).",
        "ic IC2: Age < 70 <- faculty(Sec, Fac, Age).",
        "ic IC5: Fac > 0 <- faculty(Sec, Fac, Age).",
        "ic IC6: Sec > 0 <- takes_section(St, Sec).",
    ]
    .iter()
    .map(|s| parse_constraint(s).unwrap())
    .collect();
    TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new())
}

/// The default configuration on the engine that has backends.
fn bfs_cfg() -> SearchConfig {
    SearchConfig {
        strategy: Strategy::Bfs,
        ..SearchConfig::default()
    }
}

/// Counter totals recorded while running `f`, as a stable sorted map.
fn counters_of(f: impl FnOnce()) -> BTreeMap<&'static str, u64> {
    let before = obs::snapshot();
    f();
    obs::snapshot().since(&before).counters
}

#[test]
fn parallel_and_sequential_counter_totals_identical() {
    let _g = lock();
    let ctx = university_ctx();
    let cfg = bfs_cfg();
    for src in [
        // Example 1's restriction attachment (satisfiable).
        "Q(Name) <- student(St, Name), takes_section(St, Sec), faculty(Sec, F, Age)",
        // Example 1's contradiction (refuted by IC1).
        "Q(Name) <- student(St, Name), takes_section(St, Sec), faculty(Sec, F, Age), Age < 18",
        // A wider query keeping several residues applicable at once.
        "Q(N1, N2) <- student(S1, N1), student(S2, N2), takes_section(S1, Sec1), \
         takes_section(S2, Sec2), faculty(Sec1, F1, A1), faculty(Sec2, F2, A2)",
    ] {
        let q = parse_query(src).unwrap();
        let par = counters_of(|| {
            std::hint::black_box(search::optimize(&q, &ctx, &cfg));
        });
        let seq = counters_of(|| {
            std::hint::black_box(search::optimize_sequential(&q, &ctx, &cfg));
        });
        assert_eq!(par, seq, "backend counter totals must match for `{src}`");
        assert!(
            par["unify.attempts"] > 0,
            "instrumentation fired for `{src}`"
        );
        assert!(par["search.levels"] > 0);
    }
}

#[test]
fn counter_totals_serialize_byte_identically() {
    let _g = lock();
    let ctx = university_ctx();
    let cfg = bfs_cfg();
    let q =
        parse_query("Q(Name) <- student(St, Name), takes_section(St, Sec), faculty(Sec, F, Age)")
            .unwrap();
    let render = |counters: BTreeMap<&'static str, u64>| {
        obs::Snapshot {
            counters,
            spans: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
        .to_json()
    };
    let par = render(counters_of(|| {
        std::hint::black_box(search::optimize(&q, &ctx, &cfg));
    }));
    let seq = render(counters_of(|| {
        std::hint::black_box(search::optimize_sequential(&q, &ctx, &cfg));
    }));
    // Span timings necessarily differ run to run; the counter section is
    // the machine-consumed part and must be byte-identical.
    assert_eq!(par, seq);
}

/// What a second best-first search on the same context may and may not
/// change in the counters: per-node work (`search.*` budget accounting,
/// `residue.applied`) repeats exactly; structure-level work (prefilter,
/// unification, subsumption staging, exactness skips) was charged when the
/// context built the structure and is not charged again.
#[test]
fn warm_context_moves_only_structure_counters() {
    let _g = lock();
    let ctx = university_ctx();
    let cfg = SearchConfig::default();
    let q = parse_query(
        "Q(N1, N2) <- student(S1, N1), student(S2, N2), takes_section(S1, Sec1), \
         takes_section(S2, Sec2), faculty(Sec1, F1, A1), faculty(Sec2, F2, A2)",
    )
    .unwrap();
    let cold = counters_of(|| {
        std::hint::black_box(search::optimize(&q, &ctx, &cfg));
    });
    let warm = counters_of(|| {
        std::hint::black_box(search::optimize(&q, &ctx, &cfg));
    });
    const STRUCTURE_LEVEL: [&str; 5] = [
        "residue.prefilter_hits",
        "residue.prefilter_misses",
        "unify.attempts",
        "subsume.checks",
        "search.exact_skipped",
    ];
    assert!(cold["unify.attempts"] > 0 && cold["residue.applied"] > 0);
    for (name, value) in &cold {
        if STRUCTURE_LEVEL.contains(name) {
            assert_eq!(warm.get(name), Some(&0), "{name} is charged per build");
        } else {
            assert_eq!(warm.get(name), Some(value), "{name} is charged per search");
        }
    }
}

/// Histogram sample counts (not timings, which necessarily vary) must be
/// backend-independent: both search paths complete the same spans, and the
/// per-thread histogram merge — element-wise bucket addition, like the
/// counter merge — cannot depend on worker interleaving. Deterministic
/// samples recorded from scoped workers must serialize byte-identically to
/// the same samples recorded sequentially.
#[test]
fn histogram_merge_is_backend_and_interleaving_independent() {
    let _g = lock();
    let ctx = university_ctx();
    let cfg = bfs_cfg();
    let q =
        parse_query("Q(Name) <- student(St, Name), takes_section(St, Sec), faculty(Sec, F, Age)")
            .unwrap();
    let hist_counts = |f: &dyn Fn()| {
        let before = obs::snapshot();
        f();
        let delta = obs::snapshot().since(&before);
        delta
            .hists
            .iter()
            .map(|(name, h)| (*name, h.count()))
            .collect::<BTreeMap<_, _>>()
    };
    let par = hist_counts(&|| {
        std::hint::black_box(search::optimize(&q, &ctx, &cfg));
    });
    let seq = hist_counts(&|| {
        std::hint::black_box(search::optimize_sequential(&q, &ctx, &cfg));
    });
    assert_eq!(par, seq, "per-span histogram sample counts must match");
    assert_eq!(par.get("step3.search"), Some(&1));

    // Deterministic values, parallel merge vs sequential reference.
    let before = obs::snapshot();
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..64u64 {
                    obs::record_hist("equiv.hist.pin", (t * 64 + i) * 31 % 4093);
                }
                obs::flush_local();
            });
        }
    });
    let parallel = obs::snapshot().since(&before);
    let before = obs::snapshot();
    for v in 0..256u64 {
        obs::record_hist("equiv.hist.pin", v * 31 % 4093);
    }
    let sequential = obs::snapshot().since(&before);
    assert_eq!(
        parallel.hists["equiv.hist.pin"],
        sequential.hists["equiv.hist.pin"]
    );
    assert_eq!(
        parallel.hists["equiv.hist.pin"].summary_json(),
        sequential.hists["equiv.hist.pin"].summary_json()
    );
}

/// A stable rendering of a search outcome: every variant's query text and
/// step notes, or the contradiction's justification.
fn outcome_fingerprint(o: &search::Outcome) -> String {
    match o {
        search::Outcome::Contradiction {
            ic_name,
            note,
            steps,
        } => format!(
            "contradiction ic={ic_name:?} note={note} steps=[{}]",
            steps
                .iter()
                .map(|s| s.note.clone())
                .collect::<Vec<_>>()
                .join("; ")
        ),
        search::Outcome::Equivalents(vs) => vs
            .iter()
            .map(|v| {
                format!(
                    "{} | steps=[{}]",
                    v.query,
                    v.steps
                        .iter()
                        .map(|s| s.note.clone())
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            })
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

/// Fifty seeded random queries against randomized range ICs: the parallel
/// and sequential backends must produce byte-identical outcomes *and*
/// byte-identical counter totals for every one. Because this file also
/// runs in CI under `--no-default-features` (where `optimize` itself
/// takes the sequential path), equality here pins the cross-build
/// guarantee transitively: parallel-build output ≡ sequential output ≡
/// no-default-features output, byte for byte.
#[test]
fn randomized_sweep_backends_byte_identical() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let _g = lock();
    let cfg = bfs_cfg();
    let rels: [(&str, usize); 3] = [("p", 2), ("q", 2), ("r", 3)];
    for seed in 0u64..50 {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed.wrapping_mul(0x9E37_79B9));

        // 1–3 random range ICs over the relations.
        let n_ics = 1 + rng.gen_range(0usize..3);
        let ics = (0..n_ics)
            .map(|n| {
                let (rel, arity) = rels[rng.gen_range(0usize..rels.len())];
                let args: Vec<String> = (0..arity).map(|j| format!("V{j}")).collect();
                let v = rng.gen_range(0usize..arity);
                let op = ["<", "<=", ">", ">="][rng.gen_range(0usize..4)];
                let k = rng.gen_range(0i64..100);
                parse_constraint(&format!(
                    "ic S{n}: V{v} {op} {k} <- {rel}({}).",
                    args.join(", ")
                ))
                .unwrap()
            })
            .collect();
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());

        // A random conjunctive query joined on a shared first variable,
        // with an optional restriction that may interact with the ICs.
        let n_atoms = 1 + rng.gen_range(0usize..3);
        let mut body: Vec<String> = (0..n_atoms)
            .map(|i| {
                let (rel, arity) = rels[rng.gen_range(0usize..rels.len())];
                let args: Vec<String> = (0..arity)
                    .map(|j| format!("X{}_{j}", i.min(1) * i))
                    .collect();
                format!("{rel}(X, {})", args[1..].join(", "))
            })
            .collect();
        if rng.gen_bool(0.6) {
            let op = ["<", "<=", ">", ">="][rng.gen_range(0usize..4)];
            body.push(format!("X {op} {}", rng.gen_range(0i64..100)));
        }
        let q = parse_query(&format!("Q(X) <- {}", body.join(", "))).unwrap();

        let before_par = obs::snapshot();
        let par = search::optimize(&q, &ctx, &cfg);
        let par_counters = obs::snapshot().since(&before_par).counters;
        let before_seq = obs::snapshot();
        let seq = search::optimize_sequential(&q, &ctx, &cfg);
        let seq_counters = obs::snapshot().since(&before_seq).counters;

        assert_eq!(
            outcome_fingerprint(&par),
            outcome_fingerprint(&seq),
            "seed {seed}: backends disagree on `{q}`"
        );
        assert_eq!(
            par_counters, seq_counters,
            "seed {seed}: counter totals diverge on `{q}`"
        );
    }
}
