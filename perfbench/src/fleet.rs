//! A fleet of real `rnb-stored` daemons under `--control`.
//!
//! Each daemon prints `READY <addr>` once bound and exits after a
//! `shutdown` line (or stdin EOF) with a drain and a final `BYE`. The
//! drain waits for live connections, so callers drop every client before
//! [`Fleet::shutdown`]. Dropping a fleet without a shutdown (a panic)
//! kills and reaps every daemon, and a daemon whose harness died sees
//! stdin EOF and exits by itself, so no daemon outlives the benchmark.

use crate::cpu;
use rnb_store::StoreClient;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Node {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    reaped: bool,
}

/// The live daemons, in placement order.
pub struct Fleet {
    nodes: Vec<Node>,
}

/// Fleet-wide sums of the `stats` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub get_txns: u64,
    pub keys: u64,
    pub hits: u64,
    pub evictions: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            get_txns: self.get_txns - earlier.get_txns,
            keys: self.keys - earlier.keys,
            hits: self.hits - earlier.hits,
            evictions: self.evictions - earlier.evictions,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.get_txns += other.get_txns;
        self.keys += other.keys;
        self.hits += other.hits;
        self.evictions += other.evictions;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

impl Fleet {
    /// Start `n` daemons with default flags except `--mem`, and block
    /// until every one has announced its address. All processes are
    /// spawned before the first `READY` is awaited, so they start up in
    /// parallel.
    pub fn launch(bin: &Path, n: usize, mem_mb: usize) -> io::Result<Fleet> {
        let mut fleet = Fleet {
            nodes: Vec::with_capacity(n),
        };
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let mut child = Command::new(bin)
                .args(["--control", "--port", "0", "--mem", &mem_mb.to_string()])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()?;
            let stdin = child.stdin.take();
            let stdout = child.stdout.take();
            pending.push((child, stdin, stdout));
        }
        for (child, stdin, stdout) in pending {
            let stdout = stdout.ok_or_else(|| io::Error::other("daemon stdout not piped"))?;
            // Owned by the fleet before the handshake, so a failed
            // handshake still kills and reaps it.
            fleet.nodes.push(Node {
                child,
                stdin,
                stdout: BufReader::new(stdout),
                addr: SocketAddr::from(([0, 0, 0, 0], 0)),
                reaped: false,
            });
        }
        for node in &mut fleet.nodes {
            node.addr = read_ready(&mut node.stdout)?;
        }
        Ok(fleet)
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// On-CPU nanoseconds of every daemon thread, summed over the fleet.
    pub fn cpu_ns(&self) -> io::Result<u64> {
        let mut total = 0;
        for node in &self.nodes {
            total += cpu::process_cpu_ns(node.child.id())?;
        }
        Ok(total)
    }

    /// Sum the `stats` verb over the fleet. Each daemon is asked over a
    /// fresh connection that is closed again, so the measured passes see
    /// exactly one connection per server: the client's.
    pub fn counters(&self) -> io::Result<Counters> {
        let mut sum = Counters::default();
        for node in &self.nodes {
            let stats = StoreClient::connect(node.addr)?.stats()?;
            let get = |name: &str| -> io::Result<u64> {
                stats
                    .get(name)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("stats lacks {name}")))
            };
            sum.add(&Counters {
                get_txns: get("get_transactions")?,
                keys: get("cmd_get")?,
                hits: get("get_hits")?,
                evictions: get("evictions")?,
                bytes_read: get("bytes_read")?,
                bytes_written: get("bytes_written")?,
            });
        }
        Ok(sum)
    }

    /// Ask every daemon to drain and exit, then wait for each `BYE` and
    /// process exit. All daemons drain at once.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut first_err = None;
        for node in &mut self.nodes {
            if let Some(stdin) = node.stdin.as_mut() {
                if let Err(e) = stdin.write_all(b"shutdown\n").and_then(|()| stdin.flush()) {
                    first_err.get_or_insert(e);
                }
            }
        }
        for node in &mut self.nodes {
            let mut line = String::new();
            let bye = loop {
                line.clear();
                match node.stdout.read_line(&mut line) {
                    Ok(0) => break Err(io::Error::other("daemon exited without BYE")),
                    Ok(_) if line.trim() == "BYE" => break Ok(()),
                    Ok(_) => {}
                    Err(e) => break Err(e),
                }
            };
            node.stdin = None;
            let status = node.child.wait();
            node.reaped = true;
            match (bye, status) {
                (Err(e), _) | (Ok(()), Err(e)) => {
                    first_err.get_or_insert(e);
                }
                (Ok(()), Ok(s)) if !s.success() => {
                    first_err.get_or_insert(io::Error::other(format!("daemon exited with {s}")));
                }
                (Ok(()), Ok(_)) => {}
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            if !node.reaped {
                let _ = node.child.kill();
                let _ = node.child.wait();
            }
        }
    }
}

fn read_ready(stdout: &mut BufReader<ChildStdout>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::other("daemon exited before READY"));
        }
        if let Some(rest) = line.trim().strip_prefix("READY ") {
            return rest
                .parse()
                .map_err(|e| io::Error::other(format!("bad READY address {rest:?}: {e}")));
        }
    }
}
