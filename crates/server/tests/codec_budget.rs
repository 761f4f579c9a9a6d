//! The allocation budget of the wire codec, so a served request's fixed cost
//! cannot regrow unnoticed: what a get's request and its answer allocate
//! through encode and decode — from a borrowed frame and from the owned one
//! the server and the client decode — and that a decoded string costs one
//! allocation — its own `String` — with nothing staged on the way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::{Bytes, BytesMut};
use tse_object_model::{Oid, Value};
use tse_server::proto::{
    decode_request, decode_request_owned, decode_response, decode_response_owned, encode_request,
    encode_response, Request, Response,
};
use tse_storage::payload::{get_str, put_str};

/// The system allocator plus a per-thread count of `alloc`/`realloc` calls
/// (per thread, so tests running beside this one do not show up in it).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a bump of a const-initialised
// thread-local `Cell`, which neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`, with the caller's layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while `f` runs.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_get_and_its_answer_cross_the_codec_in_seven_allocations() {
    let request =
        Request::Get { sid: 7, oid: Oid(3), class: "Person".into(), attr: "name".into() };
    let response = Response::Val(Value::Str("ann".into()));
    let ((req, resp), n) = allocs(|| {
        let req = decode_request(&encode_request(&request)).expect("request decodes");
        let resp = decode_response(&encode_response(&response)).expect("response decodes");
        (req, resp)
    });
    assert_eq!(req, request);
    assert_eq!(resp, response);
    // One frame buffer per encode, sized before the body is written; per
    // decode, one copy of the borrowed frame plus each string's own
    // `String` (two in the request, one in the answer). Twenty before the
    // frame was sized up front and a string was copied straight out of the
    // body.
    assert_eq!(n, 7, "a get's codec round trip allocated {n} times");
}

#[test]
fn a_get_and_its_answer_cross_the_codec_in_five_allocations_when_the_decoder_takes_the_frame() {
    let request =
        Request::Get { sid: 7, oid: Oid(3), class: "Person".into(), attr: "name".into() };
    let response = Response::Val(Value::Str("ann".into()));
    let ((req, resp), n) = allocs(|| {
        let req = decode_request_owned(encode_request(&request)).expect("request decodes");
        let resp = decode_response_owned(encode_response(&response)).expect("response decodes");
        (req, resp)
    });
    assert_eq!(req, request);
    assert_eq!(resp, response);
    // One frame buffer per encode; a decode reads the body inside the frame
    // it takes, so only each string's own `String` is new. Seven while a
    // decode copied every body into a shared buffer first.
    assert_eq!(n, 5, "a get's codec round trip allocated {n} times");
}

#[test]
fn a_decoded_string_costs_one_allocation() {
    let names = ["", "a", "Person", "ünïcödé", &"x".repeat(1000)];
    let mut buf = BytesMut::new();
    for name in names {
        put_str(&mut buf, name);
    }
    let mut body: Bytes = buf.freeze();
    for name in names {
        let (decoded, n) = allocs(|| get_str(&mut body).expect("string decodes"));
        assert_eq!(decoded, name);
        // An empty `String` allocates nothing; every other one exactly
        // once. Three apiece before (one for an empty string): a staged
        // `Vec`, its `Arc`, then the `String`.
        assert_eq!(n, u64::from(!name.is_empty()), "get_str({name:?}) allocated {n} times");
    }
    assert!(body.is_empty());
}
