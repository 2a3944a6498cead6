//! Allocation budget for a point read over the wire: the codec works
//! once per message, at both ends. The client encodes its request where
//! it lies, straight into its send buffer; the server replies with the
//! committed version's log bytes, shared, never decoded or re-encoded;
//! and the client's decode moves the document out of the reply's tree
//! instead of cloning it.
//!
//! A count of allocator calls repeats exactly, in debug and optimized
//! builds alike, where a timing would flap. For a `get_doc` of a stored
//! order with five order lines (`ORDER` below):
//!
//! | step                                     | this tree | budget | message trees |
//! |------------------------------------------|-----------|--------|---------------|
//! | `Request::encode_with_id`                | 5         | 5      | 15            |
//! | the same request into a warm send buffer | 0         | 0      | —             |
//! | the server's reply, into a warm buffer   | 2         | 2      | 19            |
//! | `Response::decode_with_id` of the reply  | 11        | 11     | 20            |
//!
//! "Message trees" is the commit before messages were encoded in place:
//! each request was built as a `Value` tree and encoded whole, the
//! server decoded the version and re-encoded it, and the client cloned
//! the document out of the decoded reply. The encode's five calls are
//! its fresh `Vec` growing; the reply's two format the session's
//! `doc/orders` domain name. The decode's budget is a decode of the
//! reply's payload into its tree alone, measured beside it, so any clone
//! out of the tree fails it.
//!
//! Its own test binary because of the `#[global_allocator]`; one `#[test]`
//! so no sibling test allocates on the counted thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mmdb::substrate::txn::IsolationLevel;
use mmdb::substrate::types::codec::value_from_bytes;
use mmdb::Database;
use mmdb_protocol::{frame, Request, Response, SessionOp};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread. A `Cell<u64>` has no
    /// destructor and is const-initialised, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only extra work is bumping a
// thread-local integer, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocator calls it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The order the reads fetch: a benchmark-shaped document, with short
/// strings, one past the inline limit, numbers and five order lines.
const ORDER: &str = r#"{"_key":"0c6df508-4b1a-4e6e-9a2f-1d2c3b4a5f60","customer_id":42,
  "order_date":"2022-09-01","status":"shipped","total_price":723.88,"orderlines":[
  {"product_no":"2724f","product_name":"Toy Story 3 (Blu-ray)","brand":"Pixar","price":66},
  {"product_no":"3424g","product_name":"The Lego Movie","brand":"Warner","price":40.5},
  {"product_no":"5a21b","product_name":"Finding Nemo","brand":"Pixar","price":12},
  {"product_no":"77c30","product_name":"Spirited Away (Collector's Edition)","brand":"Ghibli","price":31},
  {"product_no":"91d4e","product_name":"Up","brand":"Pixar","price":9.99}]}"#;

#[test]
fn a_wire_point_read_allocates_for_its_bytes_not_for_message_trees() {
    let db = Database::in_memory();
    db.create_collection("orders").unwrap();
    let key = db.insert_json("orders", ORDER).unwrap();
    let request =
        Request::Op(SessionOp::GetDocument { collection: "orders".into(), key: key.clone() });

    let (payload, encode) = counted(|| request.encode_with_id(Some(7)));
    assert_eq!(Request::decode_with_id(&payload).unwrap(), (Some(7), request.clone()));
    // The client's own path: `Client::submit` frames into its send buffer.
    let submit = |sent: &mut Vec<u8>| {
        frame::append_frame(sent, frame::MAX_FRAME_LEN, |out| {
            request.encode_with_id_into(Some(7), out)
        })
        .unwrap();
    };
    let mut sent = Vec::new();
    submit(&mut sent);
    sent.clear();
    let ((), submitted) = counted(|| submit(&mut sent));
    assert_eq!(sent[frame::HEADER_LEN..], payload[..]);

    // A session-less point read as the connection's reader serves it: a
    // snapshot, the read, and the reply appended to the reply buffer.
    let reply = |replies: &mut Vec<u8>| {
        let s = db.begin(IsolationLevel::Snapshot);
        let resp = Response::MaybeEncoded(s.get_document_encoded("orders", &key).unwrap());
        s.commit().unwrap();
        frame::append_frame(replies, frame::MAX_FRAME_LEN, |out| {
            resp.encode_with_id_into(Some(7), out)
        })
        .unwrap();
    };
    let mut replies = Vec::new();
    reply(&mut replies);
    replies.clear();
    let ((), serve) = counted(|| reply(&mut replies));
    let reply_payload = &replies[frame::HEADER_LEN..];

    let (tree, tree_only) = counted(|| value_from_bytes(reply_payload).unwrap());
    drop(tree);
    let (decoded, decode) = counted(|| Response::decode_with_id(reply_payload).unwrap());
    let order = db.get_document("orders", &key).unwrap();
    assert!(order.is_some());
    assert_eq!(decoded, (Some(7), Response::Maybe(order)));

    eprintln!(
        "request encode {encode}, into a send buffer {submitted}, server reply {serve}, \
         reply decode {decode} (its tree alone {tree_only})"
    );
    assert!(encode <= 5, "{encode} allocations to encode a get_doc: is it built as a tree again?");
    assert_eq!(submitted, 0, "framing a request into a warm send buffer must not allocate");
    assert!(serve <= 2, "{serve} allocations to serve a point read: is the version decoded again?");
    assert!(
        decode <= tree_only,
        "{decode} allocations to decode a reply whose tree alone takes {tree_only}: is it cloned out?"
    );
}
