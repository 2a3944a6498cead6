//! `mmdb-shell` — an interactive MMQL/SQL shell over one multi-model
//! database.
//!
//! ```text
//! cargo run --bin mmdb-shell
//! mmdb> .demo                       -- load the paper's example data
//! mmdb> FOR c IN customers FILTER c.credit_limit > 3000 RETURN c.name
//! ["Mary"]
//! mmdb> .sql SELECT name FROM customers ORDER BY name
//! mmdb> .explain FOR c IN customers FILTER c.credit_limit > 3000 RETURN c
//! mmdb> .quit
//! ```
//!
//! With `--connect host:port` the shell speaks to a running
//! `mmdb-serve` over the wire protocol instead of an embedded engine;
//! the same statements and dot-commands work, plus `.begin`/`.commit`/
//! `.abort` for explicit transactions and `.stats` for server metrics.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::allow_attributes, clippy::allow_attributes_without_reason))]

use std::io::{BufRead, Write};

use mmdb::{Database, Value};
use mmdb_client::Client;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let connect = args.iter().position(|a| a == "--connect").map(|i| {
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| {
                eprintln!("usage: mmdb-shell [--connect host:port]");
                std::process::exit(2);
            })
    });
    match connect {
        Some(addr) => run_remote(&addr),
        None => run_embedded(),
    }
}

fn run_embedded() {
    let db = Database::in_memory();
    println!("mmdb shell — MMQL by default; .help for commands");
    repl(|line| dispatch(&db, line));
}

fn run_remote(addr: &str) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "mmdb shell — connected to {} ({}); .help for commands",
        addr,
        client.server_version()
    );
    let addr = addr.to_string();
    repl(move |line| dispatch_remote(&mut client, &addr, line));
}

fn repl(mut handle: impl FnMut(&str) -> mmdb::Result<Reply>) {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("mmdb> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match handle(line) {
            Ok(Reply::Quit) => break,
            Ok(Reply::Text(t)) => println!("{t}"),
            Err(e) => println!("error: {e}"),
        }
    }
}

enum Reply {
    Text(String),
    Quit,
}

fn dispatch(db: &Database, line: &str) -> mmdb::Result<Reply> {
    if let Some(rest) = line.strip_prefix('.') {
        let (cmd, arg) = rest.split_once(' ').unwrap_or((rest, ""));
        return match cmd {
            "quit" | "exit" | "q" => Ok(Reply::Quit),
            "help" => Ok(Reply::Text(HELP.trim().to_string())),
            "demo" => {
                mmdb::paper::load(db)?;
                Ok(Reply::Text("loaded the paper's demo data (customers, social, cart, orders)".into()))
            }
            "sql" => render(db.query_sql(arg)?),
            "explain" => Ok(Reply::Text(db.explain(arg)?)),
            "analyze" => Ok(Reply::Text(db.explain_analyze(arg)?)),
            "collections" => {
                let names = db.world().catalog.names();
                let lines: Vec<String> =
                    names.iter().map(|(name, kind)| format!("{name}  {kind}")).collect();
                Ok(Reply::Text(lines.join("\n")))
            }
            "create" => {
                db.create_collection(arg.trim())?;
                Ok(Reply::Text(format!("created collection '{}'", arg.trim())))
            }
            "insert" => {
                // .insert <collection> <json>
                let (coll, json) = arg
                    .split_once(' ')
                    .ok_or_else(|| mmdb::Error::Parse(".insert <collection> <json>".into()))?;
                let key = db.insert_json(coll, json)?;
                Ok(Reply::Text(format!("inserted '{key}'")))
            }
            other => Ok(Reply::Text(format!("unknown command '.{other}' — try .help"))),
        };
    }
    render(db.query(line)?)
}

fn dispatch_remote(client: &mut Client, addr: &str, line: &str) -> mmdb::Result<Reply> {
    if let Some(rest) = line.strip_prefix('.') {
        let (cmd, arg) = rest.split_once(' ').unwrap_or((rest, ""));
        return match cmd {
            "quit" | "exit" | "q" => Ok(Reply::Quit),
            "help" => Ok(Reply::Text(format!("{}{}", HELP.trim(), REMOTE_HELP.trim_end()))),
            "demo" => {
                load_demo_remote(client)?;
                Ok(Reply::Text(
                    "loaded the paper's demo data (customers, social, cart, orders)".into(),
                ))
            }
            "sql" => render(client.query_sql(arg)?),
            "explain" => Ok(Reply::Text(client.explain(arg)?)),
            "analyze" => Ok(Reply::Text(client.explain_analyze(arg)?)),
            "create" => {
                client.create_collection(arg.trim())?;
                Ok(Reply::Text(format!("created collection '{}'", arg.trim())))
            }
            "insert" => {
                let (coll, json) = arg
                    .split_once(' ')
                    .ok_or_else(|| mmdb::Error::Parse(".insert <collection> <json>".into()))?;
                let key = client.insert_document(coll, mmdb::from_json(json)?)?;
                Ok(Reply::Text(format!("inserted '{key}'")))
            }
            "begin" => {
                let id = client.begin(arg.trim() == "serializable")?;
                Ok(Reply::Text(format!("transaction {id} open")))
            }
            "commit" => {
                let ts = client.commit()?;
                Ok(Reply::Text(format!("committed at ts {ts}")))
            }
            "abort" => {
                client.abort()?;
                Ok(Reply::Text("aborted".into()))
            }
            "ping" => {
                client.ping()?;
                Ok(Reply::Text("pong".into()))
            }
            "stats" => Ok(Reply::Text(mmdb::to_json_pretty(&client.admin_stats()?))),
            "slowlog" => {
                if arg.trim().eq_ignore_ascii_case("reset") {
                    Ok(Reply::Text(mmdb::to_json_pretty(&client.admin_slowlog_reset()?)))
                } else {
                    Ok(Reply::Text(mmdb::to_json_pretty(&client.admin_slowlog()?)))
                }
            }
            "health" => Ok(Reply::Text(mmdb::to_json_pretty(&client.admin_health()?))),
            "repl" => Ok(Reply::Text(mmdb::to_json_pretty(&client.admin_repl()?))),
            "checkpoint" => {
                Ok(Reply::Text(mmdb::to_json_pretty(&client.admin_checkpoint()?)))
            }
            "pipe" => {
                let (n, query) = arg
                    .split_once(' ')
                    .and_then(|(n, q)| Some((n.parse::<usize>().ok()?, q.trim())))
                    .filter(|(n, q)| *n >= 1 && !q.is_empty())
                    .ok_or_else(|| mmdb::Error::Parse(".pipe <n> <mmql>".into()))?;
                pipe_query(client, n, query)
            }
            "subscribe" => {
                let from = match arg.trim() {
                    // Default: only future commits — start at the current
                    // WAL tail the server reports.
                    "" => match client.admin_repl()?.get_field("wal_tail_lsn").as_int() {
                        Ok(lsn) if lsn >= 0 => lsn as u64,
                        _ => 0,
                    },
                    lsn => lsn
                        .parse()
                        .map_err(|_| mmdb::Error::Parse(".subscribe [from_lsn]".into()))?,
                };
                follow_feed(addr, from)
            }
            other => Ok(Reply::Text(format!("unknown command '.{other}' — try .help"))),
        };
    }
    render(client.query(line)?)
}

/// Run the same query `n` times pipelined on the shell's connection —
/// all submitted before any response is read — and compare the wall
/// time against `n` strict request/response round trips.
fn pipe_query(client: &mut Client, n: usize, query: &str) -> mmdb::Result<Reply> {
    use mmdb_protocol::{Request, Response};
    let req = Request::Query { text: query.into(), deadline_ms: None };

    let t0 = std::time::Instant::now();
    let ids: Vec<u64> = (0..n).map(|_| client.submit(&req)).collect::<mmdb::Result<_>>()?;
    let mut rows = 0usize;
    for id in ids {
        match client.receive(id)? {
            Response::Rows(r) => rows += r.len(),
            other => return Err(mmdb::Error::Protocol(format!("unexpected response: {other:?}"))),
        }
    }
    let pipelined = t0.elapsed();

    let t0 = std::time::Instant::now();
    for _ in 0..n {
        client.query(query)?;
    }
    let serial = t0.elapsed();

    let speedup = serial.as_secs_f64() / pipelined.as_secs_f64().max(1e-9);
    Ok(Reply::Text(format!(
        "{n} runs, {rows} rows total\npipelined: {pipelined:?}\nserial:    {serial:?} \
         ({speedup:.2}x speedup from pipelining)"
    )))
}

/// Follow the `SUBSCRIBE` change feed on a dedicated connection (the
/// shell's own connection must stay in request/response mode), printing
/// committed writes as JSON lines until the server goes away or the
/// shell is interrupted.
fn follow_feed(addr: &str, from_lsn: u64) -> mmdb::Result<Reply> {
    let mut feed = Client::connect(addr)?;
    feed.subscribe(from_lsn)?;
    println!("change feed from lsn {from_lsn} — ctrl-C to stop");
    loop {
        let event = feed.next_change()?;
        if matches!(event.get_field("type").as_str(), Ok("heartbeat")) {
            continue;
        }
        println!("{}", mmdb::to_json(&event));
    }
}

fn render(rows: Vec<Value>) -> mmdb::Result<Reply> {
    let mut text = String::new();
    for r in &rows {
        text.push_str(&mmdb::to_json(r));
        text.push('\n');
    }
    text.push_str(&format!("({} row{})", rows.len(), if rows.len() == 1 { "" } else { "s" }));
    Ok(Reply::Text(text))
}

const HELP: &str = r#"
MMQL statements run directly:  FOR c IN customers FILTER ... RETURN ...
Commands:
  .demo                load the EDBT'17 paper's example data set
  .sql <SELECT ...>    run a SQL query
  .explain <mmql>      show the optimized logical plan
  .analyze <mmql>      EXPLAIN ANALYZE: run it, show actual rows/timings/access paths
  .create <name>       create a document collection
  .insert <coll> <json>  insert one document
  .collections         list every name with its kind
  .help  .quit
"#;

const REMOTE_HELP: &str = r#"
Remote-only commands (--connect mode):
  .begin [serializable]  open an explicit transaction
  .commit  .abort        finish the open transaction
  .stats                 server metrics (ADMIN STATS)
  .slowlog               recent slow queries (ADMIN SLOWLOG)
  .slowlog reset         clear the slow-query log (ADMIN SLOWLOG RESET)
  .health                server health: ok | degraded | replica (ADMIN HEALTH)
  .repl                  replication status: role, LSNs, lag (ADMIN REPL)
  .checkpoint            fold the WAL's prefix into its image now (ADMIN CHECKPOINT)
  .subscribe [lsn]       follow the change feed (committed writes; default: from now)
  .pipe <n> <mmql>       run a query n times pipelined vs serial and compare
  .ping                  liveness check
"#;

/// The same demo data as [`mmdb::paper::load`], loaded through the wire
/// API.
fn load_demo_remote(client: &mut Client) -> mmdb::Result<()> {
    client.create_table("customers", &mmdb::paper::customer_schema()?)?;
    for (id, name, limit) in [(1, "Mary", 5000), (2, "John", 3000), (3, "Anne", 2000)] {
        client.insert_row(
            "customers",
            mmdb::from_json(&format!(r#"{{"id":{id},"name":"{name}","credit_limit":{limit}}}"#))?,
        )?;
    }
    client.create_graph("social")?;
    client.create_vertex_collection("social", "persons")?;
    client.create_edge_collection("social", "knows")?;
    for id in 1..=3 {
        client.add_vertex("social", "persons", mmdb::from_json(&format!(r#"{{"_key":"{id}"}}"#))?)?;
    }
    client.add_edge("social", "knows", "persons/1", "persons/2", mmdb::from_json("{}")?)?;
    client.add_edge("social", "knows", "persons/3", "persons/1", mmdb::from_json("{}")?)?;
    client.create_bucket("cart")?;
    client.kv_put("cart", "1", Value::str("34e5e759"))?;
    client.kv_put("cart", "2", Value::str("0c6df508"))?;
    client.create_collection("orders")?;
    client.insert_document(
        "orders",
        mmdb::from_json(
            r#"{"_key":"0c6df508","orderlines":[
            {"product_no":"2724f","product_name":"Toy","price":66},
            {"product_no":"3424g","product_name":"Book","price":40}]}"#,
        )?,
    )?;
    client.insert_document(
        "orders",
        mmdb::from_json(r#"{"_key":"34e5e759","orderlines":[{"product_no":"1111a","price":2}]}"#)?,
    )?;
    Ok(())
}
