//! A deterministic fault-injecting TCP proxy for the server tests.
//!
//! A std-only, wire-level chaos proxy: it listens on an ephemeral local
//! port, forwards every connection to an upstream address, and injects
//! faults *between* the peers — per-chunk delay, byte-at-a-time
//! fragmentation, hard severs, and black holes (the connection stays open
//! but bytes stop flowing). Both transfer directions pass through the
//! same fault plan, so a lost server ack and a lost client request are
//! equally likely.
//!
//! Faults follow the `FailpointRegistry` determinism discipline from
//! `tse-storage`: every connection's [`FaultPlan`] is a pure function of
//! `(seed, connection index)` via SplitMix64, so a failing chaos run
//! replays bit-identically from its seed — no wall-clock or OS entropy in
//! the schedule. (The *timing* of delivery still depends on the scheduler;
//! what is deterministic is which connection gets which fault, where the
//! sever/black-hole trigger points sit, and how chunks are fragmented.)
//!
//! ```text
//! let proxy = NetFault::start("127.0.0.1:7421", ChaosConfig::seeded(9)).unwrap();
//! let addr = proxy.addr(); // point clients here instead of the server
//! // ... drive load through `addr` ...
//! let stats = proxy.stop();
//! assert!(stats.connections > 0);
//! ```

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which faults the proxy injects, and how often. All rates are
/// "1-in-N connections" (0 disables the fault class entirely).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the per-connection fault plans.
    pub seed: u64,
    /// 1-in-N connections are severed (both sockets shut down) once their
    /// total forwarded bytes pass a seeded trigger point.
    pub sever_one_in: u32,
    /// 1-in-N connections are black-holed: past the trigger point the
    /// connection stays open but bytes are silently swallowed, so the
    /// peer's only escape is its own deadline.
    pub black_hole_one_in: u32,
    /// 1-in-N connections forward byte-at-a-time (worst-case
    /// fragmentation for the peer's frame reassembly).
    pub fragment_one_in: u32,
    /// Every connection delays each forwarded chunk by a seeded amount in
    /// `0..=max_delay_ms` milliseconds.
    pub max_delay_ms: u64,
    /// Sever/black-hole trigger points fall within the first
    /// `64..64 + trigger_window_bytes` forwarded bytes.
    pub trigger_window_bytes: u64,
}

impl ChaosConfig {
    /// The standard chaos mix at `seed`: frequent severs, occasional
    /// black holes, heavy fragmentation, small delays.
    pub fn seeded(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            sever_one_in: 3,
            black_hole_one_in: 7,
            fragment_one_in: 4,
            max_delay_ms: 2,
            trigger_window_bytes: 4096,
        }
    }

    /// A fault-free passthrough (plumbing tests).
    pub fn quiet() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            sever_one_in: 0,
            black_hole_one_in: 0,
            fragment_one_in: 0,
            max_delay_ms: 0,
            trigger_window_bytes: 4096,
        }
    }
}

/// The faults one proxied connection will experience, derived
/// deterministically from `(config.seed, connection index)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Delay applied to every forwarded chunk, milliseconds.
    pub delay_ms: u64,
    /// Forward one byte per write call.
    pub fragment: bool,
    /// Shut the connection down hard after this many total bytes.
    pub sever_after_bytes: Option<u64>,
    /// Swallow bytes (connection stays open) after this many total bytes.
    pub black_hole_after_bytes: Option<u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The plan for the `index`-th accepted connection under `config`.
    /// Pure: same seed and index, same plan — a chaos run replays from
    /// its seed.
    pub fn derive(config: &ChaosConfig, index: u64) -> FaultPlan {
        let mut state = config.seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        let roll = |state: &mut u64, one_in: u32| -> bool {
            one_in > 0 && splitmix64(state).is_multiple_of(one_in as u64)
        };
        let trigger = |state: &mut u64, window: u64| -> u64 {
            64 + splitmix64(state) % window.max(1)
        };
        let delay_ms = if config.max_delay_ms > 0 {
            splitmix64(&mut state) % (config.max_delay_ms + 1)
        } else {
            0
        };
        let fragment = roll(&mut state, config.fragment_one_in);
        let sever = roll(&mut state, config.sever_one_in)
            .then(|| trigger(&mut state, config.trigger_window_bytes));
        let black_hole = roll(&mut state, config.black_hole_one_in)
            .then(|| trigger(&mut state, config.trigger_window_bytes));
        FaultPlan {
            delay_ms,
            fragment,
            sever_after_bytes: sever,
            black_hole_after_bytes: black_hole,
        }
    }
}

/// Counters for a finished (or running) proxy.
#[derive(Debug, Default, Clone)]
pub struct NetFaultStats {
    /// Connections accepted and proxied.
    pub connections: u64,
    /// Connections severed by their fault plan.
    pub severed: u64,
    /// Connections forwarded byte-at-a-time.
    pub fragmented: u64,
    /// Total bytes forwarded (both directions, pre-fault).
    pub forwarded_bytes: u64,
}

#[derive(Default)]
struct StatsCells {
    connections: AtomicU64,
    severed: AtomicU64,
    fragmented: AtomicU64,
    forwarded_bytes: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> NetFaultStats {
        NetFaultStats {
            connections: self.connections.load(Ordering::SeqCst),
            severed: self.severed.load(Ordering::SeqCst),
            fragmented: self.fragmented.load(Ordering::SeqCst),
            forwarded_bytes: self.forwarded_bytes.load(Ordering::SeqCst),
        }
    }
}

/// Both sockets of one proxied connection, so either pump direction (or
/// the fault plan) can sever the whole pair.
struct ConnPair {
    down: TcpStream,
    up: TcpStream,
    severed: AtomicBool,
}

impl ConnPair {
    fn sever(&self) {
        if !self.severed.swap(true, Ordering::SeqCst) {
            let _ = self.down.shutdown(Shutdown::Both);
            let _ = self.up.shutdown(Shutdown::Both);
        }
    }
}

struct ProxyShared {
    upstream: String,
    config: ChaosConfig,
    stopping: AtomicBool,
    next_conn: AtomicU64,
    stats: StatsCells,
    conns: Mutex<Vec<Arc<ConnPair>>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// A running fault-injecting proxy. Point clients at [`NetFault::addr`];
/// call [`NetFault::stop`] to tear everything down and collect stats.
pub struct NetFault {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetFault {
    /// Bind an ephemeral local port and proxy every connection to
    /// `upstream` under `config`'s fault schedule.
    pub fn start(upstream: impl Into<String>, config: ChaosConfig) -> std::io::Result<NetFault> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream: upstream.into(),
            config,
            stopping: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            stats: StatsCells::default(),
            conns: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("netfault-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(NetFault { addr, shared, accept: Some(accept) })
    }

    /// The proxy's listen address — where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, sever every live connection, join all threads, and
    /// return the final counters.
    pub fn stop(mut self) -> NetFaultStats {
        self.shutdown();
        self.shared.stats.snapshot()
    }

    fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway self-connect.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for conn in self.shared.conns.lock().unwrap().drain(..) {
            conn.sever();
        }
        let pumps = std::mem::take(&mut *self.shared.pumps.lock().unwrap());
        for pump in pumps {
            let _ = pump.join();
        }
    }
}

impl Drop for NetFault {
    fn drop(&mut self) {
        if !self.shared.stopping.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ProxyShared>) {
    loop {
        let down = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let index = shared.next_conn.fetch_add(1, Ordering::SeqCst);
        let plan = FaultPlan::derive(&shared.config, index);
        let up = match TcpStream::connect(&shared.upstream) {
            Ok(up) => up,
            Err(_) => continue, // upstream down: the client sees a drop
        };
        let _ = down.set_nodelay(true);
        let _ = up.set_nodelay(true);
        shared.stats.connections.fetch_add(1, Ordering::SeqCst);
        if plan.fragment {
            shared.stats.fragmented.fetch_add(1, Ordering::SeqCst);
        }
        let pair = match (down.try_clone(), up.try_clone()) {
            (Ok(d), Ok(u)) => {
                Arc::new(ConnPair { down: d, up: u, severed: AtomicBool::new(false) })
            }
            _ => continue,
        };
        shared.conns.lock().unwrap().push(Arc::clone(&pair));
        // Sever/black-hole trigger on *combined* bytes across directions,
        // so a fault can land between a request and its ack — the
        // lost-ack case idempotent retries exist for.
        let transferred = Arc::new(AtomicU64::new(0));
        let spawn_pump = |src: TcpStream, dst: TcpStream, name: String| {
            let shared = Arc::clone(&shared);
            let pair = Arc::clone(&pair);
            let plan = plan.clone();
            let transferred = Arc::clone(&transferred);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || pump(src, dst, plan, pair, transferred, shared))
        };
        let c2s = spawn_pump(down, up.try_clone().expect("cloned above"), format!("nf-c2s-{index}"));
        let s2c = spawn_pump(up, pair.down.try_clone().expect("cloned above"), format!("nf-s2c-{index}"));
        let mut pumps = shared.pumps.lock().unwrap();
        for handle in [c2s, s2c].into_iter().flatten() {
            pumps.push(handle);
        }
    }
}

/// Forward `src` → `dst` through the fault plan until EOF, error, or
/// sever. Black-holed connections keep reading (so the peer never sees
/// backpressure) but stop forwarding.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: FaultPlan,
    pair: Arc<ConnPair>,
    transferred: Arc<AtomicU64>,
    shared: Arc<ProxyShared>,
) {
    let mut buf = [0u8; 4096];
    let mut black_holed = false;
    loop {
        if pair.severed.load(Ordering::SeqCst) {
            break;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let total = transferred.fetch_add(n as u64, Ordering::SeqCst) + n as u64;
        shared.stats.forwarded_bytes.fetch_add(n as u64, Ordering::SeqCst);
        if let Some(limit) = plan.sever_after_bytes {
            if total >= limit {
                shared.stats.severed.fetch_add(1, Ordering::SeqCst);
                pair.sever();
                break;
            }
        }
        if let Some(limit) = plan.black_hole_after_bytes {
            if total >= limit && !black_holed {
                black_holed = true;
            }
        }
        if black_holed {
            continue; // swallow silently; the peer's deadline is its way out
        }
        if plan.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(plan.delay_ms));
        }
        let write_result = if plan.fragment {
            buf[..n].iter().try_for_each(|b| dst.write_all(std::slice::from_ref(b)))
        } else {
            dst.write_all(&buf[..n])
        };
        if write_result.and_then(|()| dst.flush()).is_err() {
            break;
        }
    }
    // Half-close the destination so the peer sees EOF once this
    // direction is done (unless black-holed: the hole stays silent).
    if !black_holed {
        let _ = dst.shutdown(Shutdown::Write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An upstream that echoes every byte back, one thread per connection.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            while let Ok((mut conn, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    loop {
                        match conn.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if conn.write_all(&buf[..n]).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                });
            }
        });
        (addr, handle)
    }

    #[test]
    fn quiet_proxy_is_a_transparent_passthrough() {
        let (upstream, _echo) = echo_upstream();
        let proxy = NetFault::start(upstream.to_string(), ChaosConfig::quiet()).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let payload: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        conn.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(back, payload);
        drop(conn);
        let stats = proxy.stop();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.severed, 0);
        assert!(stats.forwarded_bytes >= 2 * payload.len() as u64);
    }

    #[test]
    fn fault_plans_are_deterministic_in_the_seed() {
        let config = ChaosConfig::seeded(9);
        for index in 0..64 {
            assert_eq!(
                FaultPlan::derive(&config, index),
                FaultPlan::derive(&config, index),
                "plan for connection {index} must be stable"
            );
        }
        // A different seed produces a different schedule somewhere.
        let other = ChaosConfig::seeded(10);
        assert!(
            (0..64).any(|i| FaultPlan::derive(&config, i) != FaultPlan::derive(&other, i)),
            "seeds 9 and 10 produced identical 64-connection schedules"
        );
        // The standard mix actually exercises every fault class.
        let plans: Vec<FaultPlan> =
            (0..64).map(|i| FaultPlan::derive(&config, i)).collect();
        assert!(plans.iter().any(|p| p.sever_after_bytes.is_some()));
        assert!(plans.iter().any(|p| p.black_hole_after_bytes.is_some()));
        assert!(plans.iter().any(|p| p.fragment));
    }

    #[test]
    fn fragmented_forwarding_preserves_every_byte_in_order() {
        let (upstream, _echo) = echo_upstream();
        let mut config = ChaosConfig::quiet();
        config.fragment_one_in = 1; // fragment every connection
        let proxy = NetFault::start(upstream.to_string(), config).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let payload: Vec<u8> = (0..2000u32).map(|i| (i % 241) as u8).collect();
        conn.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(back, payload);
        drop(conn);
        assert_eq!(proxy.stop().fragmented, 1);
    }

    #[test]
    fn severed_connections_die_and_are_counted() {
        let (upstream, _echo) = echo_upstream();
        let mut config = ChaosConfig::quiet();
        config.sever_one_in = 1; // sever every connection...
        config.trigger_window_bytes = 1; // ...almost immediately (≥ 64 bytes)
        let proxy = NetFault::start(upstream.to_string(), config).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        let chunk = [7u8; 64];
        // Keep writing until the sever surfaces; reads must never hand
        // back data after the cut.
        let mut died = false;
        for _ in 0..1000 {
            if conn.write_all(&chunk).is_err() {
                died = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if !died {
            // The write side may outlive the cut in the OS buffer; the
            // read side must still observe the sever.
            let mut byte = [0u8; 1];
            died = matches!(conn.read(&mut byte), Ok(0) | Err(_));
        }
        assert!(died, "connection survived a mandatory sever");
        let stats = proxy.stop();
        assert_eq!(stats.severed, 1);
    }
}
