//! The symbol interner under concurrency: while writers intern fresh
//! strings — thousands, so the name table grows by several chunks under
//! them — readers resolve and order symbols interned before and during
//! the run. Every `as_str` must return the interned text, `Ord` on
//! symbols must agree with `Ord` on their texts, and equal texts must get
//! equal ids (distinct texts distinct ones), across all threads.

use semantic_sqo::datalog::Sym;
use std::cmp::Ordering;
use std::sync::Barrier;

const WRITERS: usize = 3;
const READERS: usize = 3;
/// Fresh strings per writer. Each writer also interns every other
/// writer's strings, so each text is interned by several threads at once.
const FRESH: usize = 4000;

fn fresh(writer: usize, i: usize) -> String {
    format!("interner-concurrency/{writer}/{i}")
}

#[test]
fn names_order_and_ids_hold_while_the_table_grows() {
    let existing: Vec<(Sym, String)> = (0..500)
        .map(|i| {
            let text = format!("interner-existing/{:04}", (i * 7919) % 500);
            (Sym::intern(&text), text)
        })
        .collect();
    let start = Barrier::new(WRITERS + READERS);
    let interned: Vec<Vec<(Sym, String)>> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let mut out = Vec::with_capacity(FRESH * WRITERS);
                    for i in 0..FRESH {
                        for other in 0..WRITERS {
                            let text = fresh((w + other) % WRITERS, i);
                            let sym = Sym::intern(&text);
                            assert_eq!(sym.as_str(), text);
                            out.push((sym, text));
                        }
                    }
                    out
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (start, existing) = (&start, &existing);
                s.spawn(move || {
                    start.wait();
                    for round in 0..40 {
                        for (k, (sym, text)) in existing.iter().enumerate() {
                            assert_eq!(sym.as_str(), text);
                            let (other, other_text) = &existing[(k * 31 + round + r) % 500];
                            assert_eq!(sym.cmp(other), text.cmp(other_text));
                            assert_eq!(sym == other, text == other_text);
                        }
                        // A symbol another thread may be interning right
                        // now resolves to its text, whoever interned it.
                        let text = fresh(round % WRITERS, round * 97 % FRESH);
                        assert_eq!(Sym::intern(&text).as_str(), text);
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().expect("reader");
        }
        writers
            .into_iter()
            .map(|w| w.join().expect("writer"))
            .collect()
    });

    let all: Vec<&(Sym, String)> = existing.iter().chain(interned.iter().flatten()).collect();
    let mut by_text: std::collections::HashMap<&str, Sym> = std::collections::HashMap::new();
    for (sym, text) in &all {
        assert_eq!(sym.as_str(), text);
        assert_eq!(*by_text.entry(text.as_str()).or_insert(*sym), *sym);
    }
    let mut ids: Vec<u32> = by_text.values().map(|s| s.id()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), by_text.len(), "distinct texts share an id");

    let mut sorted: Vec<Sym> = by_text.values().copied().collect();
    sorted.sort();
    for pair in sorted.windows(2) {
        assert_eq!(pair[0].cmp(&pair[1]), Ordering::Less);
        assert!(pair[0].as_str() < pair[1].as_str());
    }
}
