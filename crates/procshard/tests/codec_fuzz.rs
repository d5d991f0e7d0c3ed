//! Seeded-mutation fuzz of every reader built on the one JSON codec
//! (`lcl_obs::json`), modelled on the `FaultPlan` 1k fuzz: 1,000 byte
//! mutations each of a `TowerSnapshot`, a `ShardSnapshot`, a service
//! protocol request/response line, a shard-worker `init` line and a
//! committed `BENCH_*.json` document. Every mutant must either be a
//! typed error or parse to a value whose re-encoding parses back to the
//! same value; none may panic.

use lcl_core::{ReOptions, ReTower, TowerSnapshot};
use lcl_obs::json::{self, Value};
use lcl_problems::k_coloring;
use lcl_procshard::wire::InitCmd;
use lcl_procshard::{AlgSpec, GraphSpec, InputSpec};
use lcl_service::protocol::{
    encode_request, encode_response, encode_stats_request, encode_watch_request, parse_any_request,
    parse_flat_object, parse_response, ClassifyRequest, ClassifyResult, Request, Response,
};
use lcl_shard::ShardSnapshot;

const MUTANTS: u64 = 1_000;

/// xorshift64, seeded per mutant.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to four byte-level edits of `base`: overwrite a byte, insert a
/// JSON-significant byte, delete a byte, or duplicate a tail. Invalid
/// UTF-8 is replaced, as a reader of a socket or a file would see it.
fn mutate(base: &str, seed: u64) -> String {
    const INSERTS: &[u8] = b"\"\\{}[],:0123456789-+.eEuntfrbl \n\t\x01\xff";
    let mut rng = Rng::new(seed);
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        match rng.below(4) {
            0 if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                bytes[i] = rng.next() as u8;
            }
            1 => {
                let i = rng.below(bytes.len() + 1);
                bytes.insert(i, INSERTS[rng.below(INSERTS.len())]);
            }
            2 if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                bytes.remove(i);
            }
            _ if !bytes.is_empty() => {
                let i = rng.below(bytes.len());
                let tail = bytes[i..].to_vec();
                bytes.extend_from_slice(&tail);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `check` on 1,000 mutants of the bases and asserts that some are
/// accepted and some rejected; `check` returns whether it accepted.
fn fuzz(name: &str, bases: &[String], mut check: impl FnMut(&str) -> bool) {
    let mut accepted = 0;
    for seed in 0..MUTANTS {
        let base = &bases[seed as usize % bases.len()];
        if check(&mutate(base, seed)) {
            accepted += 1;
        }
    }
    assert!(
        accepted > 0,
        "{name}: some light mutations should still parse"
    );
    assert!(
        accepted < MUTANTS,
        "{name}: heavy mutations should be rejected"
    );
}

#[test]
fn tower_snapshots_survive_a_thousand_seeded_mutations() {
    let mut tower = ReTower::new(k_coloring(3, 3));
    tower.push_f(ReOptions::default()).expect("one f-step fits");
    let mut snap = tower.snapshot();
    // A problem text with every kind of escape the writer emits.
    snap.problem = format!("{}# tab\t\"q\" \\ \u{1} π 😀\n", snap.problem);
    let base = snap.to_json();
    assert_eq!(TowerSnapshot::parse(&base), Ok(snap));
    fuzz(
        "TowerSnapshot",
        &[base],
        |text| match TowerSnapshot::parse(text) {
            Ok(snap) => {
                assert_eq!(TowerSnapshot::parse(&snap.to_json()), Ok(snap), "{text:?}");
                true
            }
            Err(_) => false,
        },
    );
}

#[test]
fn shard_snapshots_survive_a_thousand_seeded_mutations() {
    let base = ShardSnapshot {
        version: 1,
        shard: 3,
        range_start: 120,
        range_end: 200,
        superstep: 5,
        live_nodes: 70,
        halo_messages: 44,
        halo_bytes: 352,
    }
    .to_json();
    fuzz(
        "ShardSnapshot",
        &[base],
        |text| match ShardSnapshot::parse(text) {
            Ok(snap) => {
                assert_eq!(ShardSnapshot::parse(&snap.to_json()), Ok(snap), "{text:?}");
                true
            }
            Err(_) => false,
        },
    );
}

fn encode_any_request(req: &Request) -> String {
    match req {
        Request::Classify(c) => encode_request(c),
        Request::Stats { id } => encode_stats_request(*id),
        Request::Watch { id, limit } => encode_watch_request(*id, *limit),
    }
}

#[test]
fn protocol_lines_survive_a_thousand_seeded_mutations() {
    let requests = [
        encode_request(&ClassifyRequest {
            id: 42,
            problem: "name: 3col\nmax-degree: 2\nnodes:\nA*\nedges:\nA A\n# \"π\" \t\u{1}"
                .to_string(),
            steps: 3,
        }),
        encode_watch_request(6, 10),
        // The spelling Python's `json.dumps` writes, spaces and all.
        r#"{"id": 1, "problem": "a\bb\fc 😀", "steps": 1}"#.to_string(),
    ];
    fuzz(
        "protocol request",
        &requests,
        |line| match parse_any_request(line) {
            Ok(req) => {
                let again = encode_any_request(&req);
                assert_eq!(parse_any_request(&again), Ok(req), "{line:?}");
                true
            }
            Err(_) => false,
        },
    );
    let responses = [
        encode_response(&Response::Result(ClassifyResult {
            id: 7,
            fingerprint: "00ff00ff00ff00ff".to_string(),
            tower_fingerprint: "a1a2a3a4a5a6a7a8".to_string(),
            levels: 5,
            fixpoint: Some(1),
            cached: true,
            resumed_from_level: 0,
            gave_up: Some("stage \"re-tower/level-3\" failed:\nbudget".to_string()),
        })),
        encode_response(&Response::Progress {
            id: 7,
            kind: "checkpoint",
            stage: "re-tower/level-3".to_string(),
            detail: 2,
        }),
    ];
    fuzz(
        "protocol response",
        &responses,
        |line| match parse_response(line) {
            Ok(resp) => {
                assert_eq!(
                    parse_response(&encode_response(&resp)),
                    Ok(resp),
                    "{line:?}"
                );
                true
            }
            Err(_) => false,
        },
    );
}

fn parse_init(line: &str) -> Result<InitCmd, String> {
    parse_flat_object(line)
        .map_err(|e| e.to_string())
        .and_then(|fields| InitCmd::parse(&fields))
}

#[test]
fn init_lines_survive_a_thousand_seeded_mutations() {
    let base = InitCmd {
        graph: GraphSpec::RandomTree {
            n: 64,
            max_degree: 3,
            seed: 5,
        },
        alg: AlgSpec::GuardedFlood { k: 2 },
        input: InputSpec::Uniform,
        ids: vec![10, 20, 30, 18_446_744_073_709_551_615],
        n: 64,
        shards: 4,
        shard: 2,
        plan_text: "plan seed=7\ncrash node=0 round=1\n".into(),
        hang_at: Some(1),
    }
    .encode();
    fuzz("InitCmd", &[base], |line| match parse_init(line) {
        Ok(cmd) => {
            assert_eq!(parse_init(&cmd.encode()), Ok(cmd), "{line:?}");
            true
        }
        Err(_) => false,
    });
}

/// Writes `value` back as JSON text: raw number text, escaped strings.
fn encode(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => json::push_string(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode(item, out);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_string(out, key);
                out.push(':');
                encode(item, out);
            }
            out.push('}');
        }
    }
}

#[test]
fn bench_documents_survive_a_thousand_seeded_mutations() {
    let bases: Vec<String> = [
        "BENCH_curves.json",
        "BENCH_obs.json",
        "BENCH_procshard.json",
        "BENCH_re_engine.json",
        "BENCH_recover.json",
        "BENCH_service.json",
        "BENCH_shard.json",
    ]
    .iter()
    .map(|name| {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).expect("committed baseline exists")
    })
    .collect();
    fuzz("BENCH_*.json", &bases, |text| match json::parse(text) {
        Ok(doc) => {
            let mut again = String::new();
            encode(&doc, &mut again);
            assert_eq!(json::parse(&again), Ok(doc), "{text:?}");
            true
        }
        Err(_) => false,
    });
}
