//! What one connection may observe, frame by frame, over real loopback
//! TCP: round-trip time, in-band `Kill`, `Close` and a second request
//! while a statement runs, and `Server::shutdown` with sessions open.
//! Raw `wire` framing is used where `Client` cannot express the exchange.

use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lardb::{DataType, Database, DatabaseConfig, Matrix, Partitioning, Row, Schema, SessionRegistry, Value};
use lardb_net::codec::Frame;
use lardb_net::{msg, Message};
use lardb_server::wire::{recv_message, send_message, Recv};
use lardb_server::{Client, QueryOutput, Server, ServerConfig};

/// A three-way cross join that runs for minutes unless cancelled.
const ENDLESS: &str =
    "SELECT COUNT(*) AS n FROM big AS x, big AS y, big AS z WHERE x.a + y.a + z.a < 0";

/// One test at a time: the timing test must not share the host's cores
/// with another test's cross join.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A database with its own governor (so `reserved()` is this test's
/// ledger alone) and a 600-row `big` for [`ENDLESS`].
fn db_with_big() -> Database {
    let db = Database::with_config(DatabaseConfig {
        workers: 2,
        pool_workers: Some(2),
        mem: Some(8),
        ..DatabaseConfig::default()
    });
    db.execute("CREATE TABLE big (a INTEGER)").unwrap();
    let vals: Vec<String> = (0..600).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", "))).unwrap();
    db
}

/// A handshaken connection speaking raw frames. Reads give up after 30 s
/// so a missing reply fails the test instead of hanging it.
struct Raw {
    stream: TcpStream,
    session_id: u64,
}

impl Raw {
    fn connect(server: &Server, tenant: &str) -> Raw {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        send_message(&mut stream, &Message::Hello { tenant: tenant.into(), auth: String::new() })
            .unwrap();
        match recv_message(&mut stream).unwrap() {
            Recv::Msg(Message::Ok { code: msg::OK_HELLO, value, .. }) => {
                Raw { stream, session_id: value }
            }
            other => panic!("handshake failed: {other:?}"),
        }
    }

    fn send(&mut self, message: Message) {
        send_message(&mut self.stream, &message).unwrap();
    }

    fn query(&mut self, sql: &str) {
        self.send(Message::Query { sql: sql.into() });
    }

    fn recv(&mut self) -> Recv {
        recv_message(&mut self.stream).unwrap()
    }

    /// Reads one schema/rows/fin result stream and returns its row count.
    fn recv_rows(&mut self) -> u64 {
        loop {
            match self.recv() {
                Recv::Msg(Message::Data(Frame::Fin(fin))) => return fin.rows,
                Recv::Msg(Message::Data(_)) => {}
                other => panic!("expected a result stream, got {other:?}"),
            }
        }
    }

    /// Waits until this connection's statement is registered as running
    /// and returns its query id.
    fn running_query(&self, sessions: &SessionRegistry) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mine = sessions.snapshot().into_iter().find(|s| s.session_id == self.session_id);
            if let Some(query_id) = mine.and_then(|s| s.query_id) {
                return query_id;
            }
            assert!(Instant::now() < deadline, "statement never showed up as running");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

fn expect_error(reply: Recv, code: u16) {
    match reply {
        Recv::Msg(Message::Error { code: got, .. }) if got == code => {}
        other => panic!("expected error code {code}, got {other:?}"),
    }
}

fn expect_ok(reply: Recv, code: u8) {
    match reply {
        Recv::Msg(Message::Ok { code: got, .. }) if got == code => {}
        other => panic!("expected ok code {code}, got {other:?}"),
    }
}

/// The server waits on no timer of its own between a statement and its
/// reply. Single-frame replies (`INSERT`) are used so that the kernel's
/// delayed ACK between the frames of a row reply, which this server still
/// pays (ROADMAP item 1), does not hide what is pinned here.
#[test]
fn round_trips_wait_on_no_timer() {
    let _one_at_a_time = serial();
    let db = Database::with_config(DatabaseConfig { workers: 2, ..DatabaseConfig::default() });
    db.execute("CREATE TABLE t (id INTEGER)").unwrap();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string(), "t", "").unwrap();

    let started = Instant::now();
    for id in 0..100 {
        match client.query(&format!("INSERT INTO t VALUES ({id})")).unwrap() {
            QueryOutput::Inserted(1) => {}
            other => panic!("expected one inserted row, got {other:?}"),
        }
    }
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "100 round trips took {took:?}");
    match client.query("SELECT COUNT(*) AS n FROM t").unwrap() {
        QueryOutput::Rows { rows, .. } => assert_eq!(rows[0].value(0).as_integer(), Some(100)),
        other => panic!("expected rows, got {other:?}"),
    }

    client.close().unwrap();
    server.shutdown();
}

/// A result whose first 256 rows encode to more than the 64 MiB message
/// cap (100 tiles of 320 × 320 doubles are 82 MB) is framed under the cap,
/// not refused: the client's fin check passes over every row and the
/// session goes on.
#[test]
fn a_result_larger_than_a_message_is_framed_not_refused() {
    let _one_at_a_time = serial();
    let db = Database::with_config(DatabaseConfig { workers: 2, ..DatabaseConfig::default() });
    let columns = [("id", DataType::Integer), ("m", DataType::Matrix(Some(320), Some(320)))];
    db.create_table("tiles", Schema::from_pairs(&columns), Partitioning::RoundRobin).unwrap();
    // One shared tile: only the wire and the client hold a hundred.
    let tile = Value::matrix(Matrix::identity(320));
    db.insert_rows("tiles", (0..100).map(|id| Row::new(vec![Value::Integer(id), tile.clone()])))
        .unwrap();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string(), "t", "").unwrap();

    match client.query("SELECT id, m FROM tiles").unwrap() {
        QueryOutput::Rows { rows, .. } => {
            assert_eq!(rows.len(), 100);
            let ids: i64 = rows.iter().map(|r| r.value(0).as_integer().unwrap()).sum();
            assert_eq!(ids, 4950);
            assert!(rows.iter().all(|r| r.value(1) == &tile));
        }
        other => panic!("expected rows, got {other:?}"),
    }
    match client.query("SELECT COUNT(*) AS n FROM tiles").unwrap() {
        QueryOutput::Rows { rows, .. } => assert_eq!(rows[0].value(0).as_integer(), Some(100)),
        other => panic!("expected rows, got {other:?}"),
    }
    client.close().unwrap();
    server.shutdown();
}

/// `Kill` of the connection's own running statement: the ack comes
/// first, then the statement's one `ERR_KILLED`, and the session goes on.
#[test]
fn in_band_kill_acks_then_fails_the_statement_once() {
    let _one_at_a_time = serial();
    let db = db_with_big();
    let sessions = Arc::clone(db.sessions());
    let server = Server::start(db, ServerConfig::default()).unwrap();

    let mut conn = Raw::connect(&server, "self-kill");
    conn.query(ENDLESS);
    let query_id = conn.running_query(&sessions);
    conn.send(Message::Kill { query_id });
    match conn.recv() {
        Recv::Msg(Message::Ok { code: msg::OK_KILLED, value, .. }) => assert_eq!(value, query_id),
        other => panic!("the kill ack must come first, got {other:?}"),
    }
    expect_error(conn.recv(), msg::ERR_KILLED);

    // The very next frames are the next statement's result: no second
    // ERR_KILLED, and the session still serves.
    conn.query("SELECT a FROM big WHERE a < 7");
    assert_eq!(conn.recv_rows(), 7);
    conn.send(Message::Close);
    expect_ok(conn.recv(), msg::OK_CLOSED);
    server.shutdown();
}

/// `Close` while a statement runs: the statement is aborted without a
/// reply of its own, and by the time the client has seen `OK_CLOSED` and
/// EOF nothing of the session is left.
#[test]
fn close_mid_query_replies_once_and_leaves_nothing() {
    let _one_at_a_time = serial();
    let db = db_with_big();
    let sessions = Arc::clone(db.sessions());
    let governor = Arc::clone(db.memory().governor());
    let server = Server::start(db, ServerConfig::default()).unwrap();

    let mut conn = Raw::connect(&server, "closer");
    conn.query(ENDLESS);
    conn.running_query(&sessions);
    conn.send(Message::Close);
    expect_ok(conn.recv(), msg::OK_CLOSED);
    assert!(matches!(conn.recv(), Recv::Closed), "OK_CLOSED must be the last frame");

    assert_eq!(sessions.active_sessions(), 0, "session still registered");
    assert_eq!(server.connections(), 0, "connection still counted");
    assert_eq!(governor.reserved(), 0, "aborted statement still holds memory");
    server.shutdown();
}

/// One request at a time: a second `Query` is refused at once, and the
/// statement it interrupted still ends with its own result. The first
/// statement waits for the server's one execution slot, which another
/// session holds with a cross join that cannot finish on its own, so it
/// is still in flight when the second request arrives however fast the
/// build runs; the holder is killed once the refusal has been read.
#[test]
fn second_query_while_one_runs_is_a_protocol_error() {
    let _one_at_a_time = serial();
    let db = db_with_big();
    db.execute("CREATE TABLE wide AS SELECT x.a AS a FROM big AS x, big AS y WHERE y.a < 200")
        .unwrap();
    let sessions = Arc::clone(db.sessions());
    let config = ServerConfig {
        max_concurrent: 1,
        queue_depth: 1,
        queue_wait_ms: 30_000,
        ..ServerConfig::default()
    };
    let server = Server::start(db, config).unwrap();

    // 1.44·10¹⁰ pairs: the slot stays taken until the kill below.
    let mut holder = Raw::connect(&server, "holder");
    holder.query("SELECT COUNT(*) AS n FROM wide AS x, wide AS y WHERE x.a + y.a < 0");
    let holding = holder.running_query(&sessions);

    let mut conn = Raw::connect(&server, "eager");
    conn.query(
        "SELECT COUNT(*) AS n FROM big AS x, big AS y, big AS z \
         WHERE x.a < 120 AND y.a < 120 AND z.a < 120 AND x.a + y.a + z.a < 0",
    );
    conn.query("SELECT 1 AS one");
    expect_error(conn.recv(), msg::ERR_PROTOCOL);
    holder.send(Message::Kill { query_id: holding });
    expect_ok(holder.recv(), msg::OK_KILLED);
    expect_error(holder.recv(), msg::ERR_KILLED);
    assert_eq!(conn.recv_rows(), 1, "the first statement's own reply");

    for mut c in [conn, holder] {
        c.send(Message::Close);
        expect_ok(c.recv(), msg::OK_CLOSED);
    }
    server.shutdown();
}

/// Shutdown is a disconnect of every session: an idle one and one in the
/// middle of a statement both end, promptly and without leaks.
#[test]
fn shutdown_ends_idle_and_running_sessions() {
    let _one_at_a_time = serial();
    let db = db_with_big();
    let sessions = Arc::clone(db.sessions());
    let governor = Arc::clone(db.memory().governor());
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut idle = Raw::connect(&server, "idle");
    let mut busy = Raw::connect(&server, "busy");
    busy.query(ENDLESS);
    busy.running_query(&sessions);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "shutdown took {took:?}");

    assert_eq!(sessions.active_sessions(), 0, "a session outlived shutdown");
    assert_eq!(governor.reserved(), 0, "aborted statement still holds memory");
    assert!(matches!(idle.recv(), Recv::Closed), "idle connection not closed");
    // The aborted statement may or may not be answered before the EOF.
    match busy.recv() {
        Recv::Closed => {}
        killed => {
            expect_error(killed, msg::ERR_KILLED);
            assert!(matches!(busy.recv(), Recv::Closed), "running connection not closed");
        }
    }
    TcpListener::bind(addr).expect("port still bound after shutdown");
}

/// The server decides once per statement whether it is traced, before
/// admission; `Database::run` takes that decision as it is. (The flight
/// recorder is the process's: every test here holds `serial()`.)
#[test]
fn a_served_statement_is_sampled_once_by_the_server() {
    let _one_at_a_time = serial();
    let db = db_with_big();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string(), "acme", "").unwrap();
    let recorder = lardb_obs::recorder();
    let completed = |sql: &str| -> Vec<_> {
        recorder.completed_snapshot().into_iter().filter(|t| t.sql == sql).collect()
    };

    let sql = "SELECT COUNT(*) AS sampled_once_probe FROM big";
    recorder.set_sample_every(2);
    let mut reply_ids = Vec::new();
    for _ in 0..20 {
        client.query(sql).unwrap();
        reply_ids.extend(client.last_trace_id());
    }
    recorder.set_sample_every(1);
    let traces = completed(sql);
    assert_eq!(traces.len(), 10, "1-in-2 sampling of 20 served statements");
    for t in &traces {
        assert_eq!(t.tenant, "acme");
        assert!(t.has_span("admission.wait") && t.has_span("execute"));
        assert_ne!(t.query_id, 0);
    }
    assert_eq!(reply_ids, traces.iter().map(|t| t.id.0).collect::<Vec<_>>());

    // EXPLAIN TRACE replies with its statement's one trace: the sampled
    // one when there is one, else one forced for the session's tenant.
    for enabled in [true, false] {
        let sql = format!("EXPLAIN TRACE SELECT COUNT(*) AS traced_{enabled} FROM big");
        recorder.set_enabled(enabled);
        let reply = client.query(&sql);
        recorder.set_enabled(true);
        let QueryOutput::Text(json) = reply.unwrap() else { panic!("expected the trace") };
        let traces = completed(&sql);
        assert_eq!(traces.len(), 1, "tracing enabled: {enabled}");
        assert_eq!(traces[0].tenant, "acme");
        assert_eq!(traces[0].has_span("admission.wait"), enabled);
        assert!(json.contains(&traces[0].id.to_string()), "the reply is not that trace");
    }
    client.close().unwrap();
    server.shutdown();
}
