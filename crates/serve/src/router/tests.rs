//! Router unit tests against in-test fake shards: plain `TcpListener`s
//! that decode the raw sub-frames they receive.

use super::*;
use crate::Client;
use std::sync::mpsc;

/// An in-test shard: decodes each raw frame it receives, records the
/// request, and answers through `answer` (`None` closes the
/// connection instead). Connections are served one at a time.
struct FakeShard {
    addr: SocketAddr,
    seen: Arc<Mutex<Vec<proto::Request>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl FakeShard {
    fn spawn(
        mut answer: impl FnMut(&proto::Request) -> Option<Vec<u8>> + Send + 'static,
    ) -> FakeShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (log, halt) = (Arc::clone(&seen), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if halt.load(Ordering::Acquire) {
                    return;
                }
                let Ok(mut stream) = stream else { continue };
                while let Ok(Some(body)) = proto::read_frame(&mut stream, proto::MAX_REQ_BODY) {
                    let req = proto::decode_request(&body).expect("a well-formed sub-frame");
                    let reply = answer(&req);
                    log.lock().unwrap().push(req);
                    match reply {
                        Some(frame) if stream.write_all(&frame).is_ok() => {}
                        _ => break,
                    }
                }
            }
        });
        FakeShard {
            addr,
            seen,
            stop,
            thread: Some(thread),
        }
    }

    fn seen(&self) -> Vec<proto::Request> {
        self.seen.lock().unwrap().clone()
    }
}

impl Drop for FakeShard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // wakes the blocking accept
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The fake index: one true hit per point, its id taken from the
/// point's cell, so a misordered gather shows.
fn fake_refs(cell: CellId) -> proto::PointRefs {
    vec![((cell.0 % 1_000_003) as u32, true)]
}

/// A fake shard's OK answer to a probe sub-frame of either form.
fn answer_probe(req: &proto::Request) -> Vec<u8> {
    let cells: Vec<CellId> = match req {
        proto::Request::ProbeCells { cells } => cells.clone(),
        proto::Request::Probe { coords, .. } => coords.iter().map(|&c| coord_to_cell(c)).collect(),
        other => panic!("not a probe: {other:?}"),
    };
    let mut payload = Vec::new();
    for &c in &cells {
        let refs = fake_refs(c);
        payload.extend_from_slice(&(refs.len() as u32).to_le_bytes());
        for (id, hit) in refs {
            payload.extend_from_slice(&proto::encode_ref(id, hit).to_le_bytes());
        }
    }
    let n = cells.len() as u32;
    proto::encode_response(proto::OP_PROBE, proto::STATUS_OK, 1, n, &payload)
}

/// The test fleets' cut: fine enough that a city spreads over shards.
const SPLIT: u8 = 10;

/// An 8×8 grid of points 5 km apart, spanning many level-10 cells,
/// so both of two shards own some.
fn points() -> Vec<Coord> {
    (0..64)
        .map(|k| {
            Coord::new(
                -74.3 + 0.06 * f64::from(k % 8),
                40.5 + 0.045 * f64::from(k / 8),
            )
        })
        .collect()
}

fn shard_of(c: Coord) -> usize {
    shard_of_cell(coord_to_cell(c), SPLIT, 2)
}

fn expected(coords: &[Coord]) -> Vec<proto::PointRefs> {
    coords
        .iter()
        .map(|&c| fake_refs(coord_to_cell(c)))
        .collect()
}

fn router(shards: &[&FakeShard], policy: RetryPolicy) -> RouterHandle {
    let config = RouterConfig {
        split_level: SPLIT,
        policy,
        ..RouterConfig::default()
    };
    Router::spawn(shards.iter().map(|s| s.addr).collect(), config).unwrap()
}

#[test]
fn scatter_writes_every_sub_frame_before_reading_a_reply() {
    // Shard 0 answers only once shard 1 holds its sub-frame; a
    // scatter that waited for shard 0's reply before writing to
    // shard 1 would stall until shard 0 gives up with INTERNAL.
    let (got_frame, shard1_has_frame) = mpsc::channel();
    let s0 = FakeShard::spawn(move |req| {
        Some(
            match shard1_has_frame.recv_timeout(Duration::from_secs(3)) {
                Ok(()) => answer_probe(req),
                Err(_) => {
                    proto::encode_response(proto::OP_PROBE, proto::STATUS_INTERNAL, 0, 0, &[])
                }
            },
        )
    });
    let s1 = FakeShard::spawn(move |req| {
        got_frame.send(()).unwrap();
        Some(answer_probe(req))
    });
    let policy = RetryPolicy {
        max_attempts: 1,
        read_timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    };
    let r = router(&[&s0, &s1], policy);
    let coords = points();
    assert!(coords.iter().any(|&c| shard_of(c) == 0) && coords.iter().any(|&c| shard_of(c) == 1));
    let reply = Client::connect(r.addr())
        .unwrap()
        .probe(&coords, false)
        .unwrap();
    assert_eq!(reply.refs, expected(&coords));
    assert_eq!((s0.seen().len(), s1.seen().len()), (1, 1));
}

#[test]
fn approximate_frames_travel_as_cells_and_exact_frames_as_coordinates() {
    let s0 = FakeShard::spawn(|req| Some(answer_probe(req)));
    let s1 = FakeShard::spawn(|req| Some(answer_probe(req)));
    let r = router(&[&s0, &s1], RetryPolicy::default());
    let coords = points();
    let mut client = Client::connect(r.addr()).unwrap();
    assert_eq!(
        client.probe(&coords, false).unwrap().refs,
        expected(&coords)
    );
    assert_eq!(client.probe(&coords, true).unwrap().refs, expected(&coords));
    for (k, shard) in [&s0, &s1].into_iter().enumerate() {
        let mine: Vec<Coord> = coords
            .iter()
            .copied()
            .filter(|&c| shard_of(c) == k)
            .collect();
        let cells: Vec<CellId> = mine.iter().map(|&c| coord_to_cell(c)).collect();
        assert_eq!(
            shard.seen(),
            vec![
                proto::Request::ProbeCells { cells },
                proto::Request::Probe {
                    coords: mine,
                    exact: true
                },
            ],
            "shard {k}: the approximate sub-frame carries cells, the exact one coordinates"
        );
    }
}

#[test]
fn a_shed_shard_is_retried_after_its_hint_within_the_attempt_cap() {
    const HINT_MS: u32 = 200;
    let mut shed_next = true;
    let s0 = FakeShard::spawn(move |req| {
        Some(if std::mem::take(&mut shed_next) {
            let hint = proto::encode_retry_hint(HINT_MS);
            proto::encode_response(proto::OP_PROBE, proto::STATUS_LOADSHED, 0, 0, &hint)
        } else {
            answer_probe(req)
        })
    });
    let s1 = FakeShard::spawn(|req| Some(answer_probe(req)));
    let policy = RetryPolicy::default();
    let r = router(&[&s0, &s1], policy);
    let coords = points();
    let mut client = Client::connect(r.addr()).unwrap();
    let t0 = Instant::now();
    let reply = client.probe(&coords, false).unwrap();
    let waited = t0.elapsed();
    assert_eq!(reply.refs, expected(&coords));
    assert!(
        waited >= Duration::from_millis(u64::from(HINT_MS) * 3 / 4),
        "the retry must honor the hint (jitter is ±25%): waited {waited:?}"
    );
    let asked = s0.seen().len();
    assert!(
        asked == 2 && asked <= policy.max_attempts as usize,
        "shard 0 asked {asked} times"
    );
    assert_eq!(s1.seen().len(), 1);
}

#[test]
fn a_shard_closing_after_the_pipelined_write_is_redialed() {
    let mut close_next = true;
    let s0 =
        FakeShard::spawn(move |req| (!std::mem::take(&mut close_next)).then(|| answer_probe(req)));
    let s1 = FakeShard::spawn(|req| Some(answer_probe(req)));
    let r = router(&[&s0, &s1], RetryPolicy::default());
    let coords = points();
    let reply = Client::connect(r.addr())
        .unwrap()
        .probe(&coords, false)
        .unwrap();
    assert_eq!(reply.refs, expected(&coords));
    assert_eq!(
        s0.seen().len(),
        2,
        "the sub-frame the shard dropped is resent on a new connection"
    );
}
