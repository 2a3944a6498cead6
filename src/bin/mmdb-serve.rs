//! `mmdb-serve` — run a mmdb server over TCP.
//!
//! ```text
//! cargo run --bin mmdb-serve -- --addr 127.0.0.1:7687 --demo
//! # elsewhere:
//! cargo run --bin mmdb-shell -- --connect 127.0.0.1:7687
//! ```
//!
//! Options:
//!   --addr HOST:PORT       listen address (default 127.0.0.1:7687; port 0 = ephemeral)
//!   --data-dir PATH        durable database directory (default: in-memory)
//!   --replica-of HOST:PORT serve as a read replica of the primary at that
//!                          address: the database is latched read-only
//!                          and its log is a copy of the primary's, kept
//!                          in --data-dir (and resumed from there after a
//!                          restart) or in memory (mutually exclusive
//!                          with --demo and --checkpoint-wal-bytes)
//!   --workers N            executor-pool threads (default 4)
//!   --max-connections N    connection cap before busy-rejection (default 64)
//!   --pipeline-depth N     per-connection cap on in-flight pipelined
//!                          requests before the reader stops pulling
//!                          frames (default 32; 1 disables pipelining)
//!   --slow-query-ms N      slow-query log threshold in ms (default 250; 0 logs everything)
//!   --slow-query-log-size N  slow-query log ring capacity (default 128; 0 disables)
//!   --checkpoint-wal-bytes N checkpoint automatically once the WAL grows
//!                          N bytes past the last checkpoint (default:
//!                          manual via ADMIN CHECKPOINT)
//!   --demo                 preload the paper's demo data set (`mmdb::paper`;
//!                          already present in --data-dir is fine)
//!
//! The server runs until stdin closes or a `quit` line arrives, then
//! shuts down gracefully (draining in-flight requests).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

use std::io::BufRead;
use std::sync::Arc;

use mmdb::Database;
use mmdb_repl::{ReplicaOptions, ReplicaRunner};
use mmdb_server::{Server, ServerConfig};

fn main() {
    let mut config = ServerConfig { addr: "127.0.0.1:7687".into(), ..ServerConfig::default() };
    let mut data_dir: Option<String> = None;
    let mut replica_of: Option<String> = None;
    let mut demo = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage(&format!("{} needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--addr" => config.addr = flag_value(&mut i),
            "--data-dir" => data_dir = Some(flag_value(&mut i)),
            "--replica-of" => replica_of = Some(flag_value(&mut i)),
            "--workers" => {
                config.workers = flag_value(&mut i).parse().unwrap_or_else(|_| usage("--workers needs a number"))
            }
            "--max-connections" => {
                config.max_connections =
                    flag_value(&mut i).parse().unwrap_or_else(|_| usage("--max-connections needs a number"))
            }
            "--pipeline-depth" => {
                config.pipeline_depth =
                    flag_value(&mut i).parse().unwrap_or_else(|_| usage("--pipeline-depth needs a number"))
            }
            "--slow-query-ms" => {
                config.slow_query_threshold = std::time::Duration::from_millis(
                    flag_value(&mut i).parse().unwrap_or_else(|_| usage("--slow-query-ms needs a number")),
                )
            }
            "--slow-query-log-size" => {
                config.slow_query_log_size = flag_value(&mut i)
                    .parse()
                    .unwrap_or_else(|_| usage("--slow-query-log-size needs a number"))
            }
            "--checkpoint-wal-bytes" => {
                config.checkpoint_wal_bytes = Some(
                    flag_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("--checkpoint-wal-bytes needs a number")),
                )
            }
            "--demo" => demo = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }

    if replica_of.is_some() && config.checkpoint_wal_bytes.is_some() {
        usage("--replica-of and --checkpoint-wal-bytes are mutually exclusive (a replica folds its log at its primary's checkpoints)");
    }
    if replica_of.is_some() && demo {
        usage("--replica-of and --demo are mutually exclusive (a replica is read-only)");
    }

    let db = match &data_dir {
        Some(dir) => match Database::open(dir) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot open database at {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => Database::in_memory_logged(),
    };
    let db = Arc::new(db);
    if demo {
        match mmdb::paper::load(&db) {
            Ok(()) => {}
            // A data directory that already holds the data set.
            Err(mmdb::Error::AlreadyExists(_)) => println!("demo data already present"),
            Err(e) => {
                eprintln!("cannot load demo data: {e}");
                std::process::exit(1);
            }
        }
    }

    let replica = match replica_of.as_ref() {
        Some(primary) => {
            match ReplicaRunner::start(Arc::clone(&db), primary.clone(), ReplicaOptions::default())
            {
                Ok(runner) => Some(runner),
                Err(e) => {
                    eprintln!("cannot start replica: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => None,
    };

    let server = match Server::start(Arc::clone(&db), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            std::process::exit(1);
        }
    };
    if let Some(runner) = &replica {
        let status = runner.status();
        server.attach_replica_status(Arc::new(move || status.to_value()));
        println!(
            "mmdb-serve replicating from {} (read-only)",
            replica_of.as_deref().unwrap_or("?")
        );
    }
    println!("mmdb-serve listening on {}", server.local_addr());
    println!("(close stdin or type 'quit' to shut down)");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    println!("shutting down...");
    if let Some(runner) = replica {
        runner.stop();
    }
    if let Err(e) = server.shutdown() {
        eprintln!("shutdown error: {e}");
        std::process::exit(1);
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: mmdb-serve [--addr HOST:PORT] [--data-dir PATH] [--replica-of HOST:PORT] \
         [--workers N] [--max-connections N] [--pipeline-depth N] [--slow-query-ms N] \
         [--slow-query-log-size N] [--checkpoint-wal-bytes N] [--demo]"
    );
    std::process::exit(2);
}
