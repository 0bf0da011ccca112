//! Serialization for [`BindingSnapshot`]s — the durable half of rollback.
//!
//! A snapshot ring that only lives in a coordinator's memory dies with the
//! coordinator; recovering a rollout mid-flight needs the retained
//! snapshots on disk. This module encodes a [`BindingSnapshot`] as one
//! line of JSON and decodes it back, with two properties the durability
//! layer relies on:
//!
//! * **Determinism** — map keys are emitted sorted, so encoding the same
//!   snapshot twice (or encoding a decoded snapshot) yields byte-identical
//!   text. Round-trip tests compare strings, not structures.
//! * **Shared substructure** — guest arrays and records are `Rc`-shared
//!   mutable objects; two globals aliasing one array must still alias one
//!   array after a decode. The encoder assigns each heap object an id at
//!   its first occurrence and emits `ref` nodes for repeats; the decoder
//!   rebuilds the aliasing from the id table. (Cycles cannot be built in
//!   the guest language, so the walk terminates.)
//!
//! The crate stays dependency-free: the JSON emitted here is simple enough
//! that a ~100-line recursive-descent reader beats pulling a serialization
//! framework into the VM.

use std::collections::HashMap;
use std::rc::Rc;

use tal::text::parse_ty;

use crate::process::{BindingSnapshot, GlobalCell};
use crate::value::{FnRef, FuncId, SlotId, StructId, Value};

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotCodecError(pub String);

impl std::fmt::Display for SnapshotCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode failed: {}", self.0)
    }
}

impl std::error::Error for SnapshotCodecError {}

// ------------------------------------------------------------------ encode

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

/// Rc-pointer-keyed table assigning each shared heap object an id at its
/// first encoding.
#[derive(Default)]
struct ShareTable {
    ids: HashMap<*const (), u64>,
    next: u64,
}

impl ShareTable {
    /// `Ok(id)` on first sight, `Err(id)` for a repeat.
    fn visit(&mut self, ptr: *const ()) -> Result<u64, u64> {
        match self.ids.get(&ptr) {
            Some(&id) => Err(id),
            None => {
                self.next += 1;
                self.ids.insert(ptr, self.next);
                Ok(self.next)
            }
        }
    }
}

fn encode_value(v: &Value, shares: &mut ShareTable, out: &mut String) {
    match v {
        Value::Unit => out.push_str("{\"t\":\"unit\"}"),
        Value::Int(n) => out.push_str(&format!("{{\"t\":\"int\",\"v\":{n}}}")),
        Value::Bool(b) => out.push_str(&format!("{{\"t\":\"bool\",\"v\":{b}}}")),
        Value::Str(s) => out.push_str(&format!("{{\"t\":\"str\",\"v\":\"{}\"}}", escape(s))),
        Value::Null => out.push_str("{\"t\":\"null\"}"),
        Value::Fn(FnRef::Unresolved) => out.push_str("{\"t\":\"fn\"}"),
        Value::Fn(FnRef::Direct(id)) => {
            out.push_str(&format!("{{\"t\":\"fn\",\"direct\":{}}}", id.0))
        }
        Value::Fn(FnRef::Slot(id)) => out.push_str(&format!("{{\"t\":\"fn\",\"slot\":{}}}", id.0)),
        Value::Array(a) => match shares.visit(Rc::as_ptr(a).cast()) {
            Err(id) => out.push_str(&format!("{{\"t\":\"ref\",\"id\":{id}}}")),
            Ok(id) => {
                out.push_str(&format!("{{\"t\":\"arr\",\"id\":{id},\"v\":["));
                for (i, e) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_value(e, shares, out);
                }
                out.push_str("]}");
            }
        },
        Value::Record(r) => match shares.visit(Rc::as_ptr(r).cast()) {
            Err(id) => out.push_str(&format!("{{\"t\":\"ref\",\"id\":{id}}}")),
            Ok(id) => {
                out.push_str(&format!(
                    "{{\"t\":\"rec\",\"id\":{id},\"sid\":{},\"v\":[",
                    r.struct_id.get().0
                ));
                for (i, e) in r.fields.borrow().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_value(e, shares, out);
                }
                out.push_str("]}");
            }
        },
    }
}

/// Encodes a snapshot as a single line of JSON (no interior newlines —
/// embedders store one snapshot per line).
pub fn encode_snapshot(snap: &BindingSnapshot) -> String {
    let mut shares = ShareTable::default();
    let mut out = String::from("{\"fns\":{");
    let mut fns: Vec<(&String, &FuncId)> = snap.fn_by_name.iter().collect();
    fns.sort();
    for (i, (name, id)) in fns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(name), id.0));
    }
    out.push_str("},\"slots\":[");
    for (i, s) in snap.slots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match s {
            Some(id) => out.push_str(&id.0.to_string()),
            None => out.push_str("null"),
        }
    }
    out.push_str("],\"structs\":{");
    let mut structs: Vec<(&String, &StructId)> = snap.struct_by_name.iter().collect();
    structs.sort();
    for (i, (name, id)) in structs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(name), id.0));
    }
    out.push_str("},\"globals\":[");
    for (i, g) in snap.globals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ty\":\"{}\",\"value\":",
            escape(&g.name),
            escape(&g.ty.to_string()),
        ));
        encode_value(&g.value, &mut shares, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

// ------------------------------------------------------------------ decode

/// The snapshot JSON as a tree. Numbers are integers only — that is all
/// the encoder emits.
enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_int(&self, what: &str) -> Result<i64, SnapshotCodecError> {
        match self {
            Json::Int(n) => Ok(*n),
            _ => Err(SnapshotCodecError(format!("{what}: expected number"))),
        }
    }

    /// An id or object label: an integer that fits `T` exactly. A value
    /// that would have to be narrowed is refused, never wrapped — a wrapped
    /// id names some *other* function, slot or struct.
    fn as_id<T: TryFrom<i64>>(&self, what: &str) -> Result<T, SnapshotCodecError> {
        let n = self.as_int(what)?;
        T::try_from(n).map_err(|_| SnapshotCodecError(format!("{what}: {n} is out of range")))
    }

    fn as_str(&self, what: &str) -> Result<&str, SnapshotCodecError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(SnapshotCodecError(format!("{what}: expected string"))),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], SnapshotCodecError> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => Err(SnapshotCodecError(format!("{what}: expected array"))),
        }
    }

    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], SnapshotCodecError> {
        match self {
            Json::Obj(v) => Ok(v),
            _ => Err(SnapshotCodecError(format!("{what}: expected object"))),
        }
    }
}

/// Deepest array/object nesting the reader follows. It is recursive, as
/// is the encoder; guest data nests a few levels, and input that nests
/// thousands deep is refused here instead of exhausting the stack.
const MAX_DEPTH: usize = 512;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> SnapshotCodecError {
        SnapshotCodecError(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), SnapshotCodecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, SnapshotCodecError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nested too deeply")),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, v: Json) -> Result<Json, SnapshotCodecError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn number(&mut self) -> Result<Json, SnapshotCodecError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|e| self.err(&format!("bad number `{text}`: {e}")))
    }

    fn string(&mut self) -> Result<String, SnapshotCodecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, SnapshotCodecError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            if self.eat(b']') {
                return Ok(Json::Arr(out));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, SnapshotCodecError> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(out));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            if self.eat(b'}') {
                return Ok(Json::Obj(out));
            }
            self.expect(b',')?;
        }
    }
}

/// Enters a heap object under its label. A label used twice would make
/// later `ref`s ambiguous: refused, not resolved to the newer object.
fn share(shares: &mut HashMap<u64, Value>, id: u64, v: &Value) -> Result<(), SnapshotCodecError> {
    match shares.insert(id, v.clone()) {
        None => Ok(()),
        Some(_) => Err(SnapshotCodecError(format!("object id {id} used twice"))),
    }
}

fn decode_value(j: &Json, shares: &mut HashMap<u64, Value>) -> Result<Value, SnapshotCodecError> {
    let tag = j
        .get("t")
        .ok_or_else(|| SnapshotCodecError("value without a `t` tag".to_string()))?
        .as_str("value tag")?;
    match tag {
        "unit" => Ok(Value::Unit),
        "null" => Ok(Value::Null),
        "int" => Ok(Value::Int(
            j.get("v")
                .ok_or_else(|| SnapshotCodecError("int without v".to_string()))?
                .as_int("int")?,
        )),
        "bool" => match j.get("v") {
            Some(Json::Bool(b)) => Ok(Value::Bool(*b)),
            _ => Err(SnapshotCodecError("bool without v".to_string())),
        },
        "str" => Ok(Value::str(
            j.get("v")
                .ok_or_else(|| SnapshotCodecError("str without v".to_string()))?
                .as_str("str")?,
        )),
        "fn" => {
            if let Some(d) = j.get("direct") {
                Ok(Value::Fn(FnRef::Direct(FuncId(d.as_id("fn")?))))
            } else if let Some(s) = j.get("slot") {
                Ok(Value::Fn(FnRef::Slot(SlotId(s.as_id("fn")?))))
            } else {
                Ok(Value::Fn(FnRef::Unresolved))
            }
        }
        "ref" => {
            let id: u64 = j
                .get("id")
                .ok_or_else(|| SnapshotCodecError("ref without id".to_string()))?
                .as_id("ref id")?;
            shares
                .get(&id)
                .cloned()
                .ok_or_else(|| SnapshotCodecError(format!("ref to unseen object {id}")))
        }
        "arr" => {
            let id: u64 = j
                .get("id")
                .ok_or_else(|| SnapshotCodecError("arr without id".to_string()))?
                .as_id("arr id")?;
            // Register before decoding elements so nested refs resolve
            // (repeats inside the same array share the one object).
            let arr = Value::empty_array();
            share(shares, id, &arr)?;
            let elems = j
                .get("v")
                .ok_or_else(|| SnapshotCodecError("arr without v".to_string()))?
                .as_arr("arr")?;
            let Value::Array(cell) = &arr else {
                unreachable!()
            };
            for e in elems {
                let v = decode_value(e, shares)?;
                cell.borrow_mut().push(v);
            }
            Ok(arr)
        }
        "rec" => {
            let id: u64 = j
                .get("id")
                .ok_or_else(|| SnapshotCodecError("rec without id".to_string()))?
                .as_id("rec id")?;
            let sid = j
                .get("sid")
                .ok_or_else(|| SnapshotCodecError("rec without sid".to_string()))?
                .as_id("rec sid")?;
            let rec = Value::record(StructId(sid), Vec::new());
            share(shares, id, &rec)?;
            let elems = j
                .get("v")
                .ok_or_else(|| SnapshotCodecError("rec without v".to_string()))?
                .as_arr("rec")?;
            let Value::Record(obj) = &rec else {
                unreachable!()
            };
            for e in elems {
                let v = decode_value(e, shares)?;
                obj.fields.borrow_mut().push(v);
            }
            Ok(rec)
        }
        other => Err(SnapshotCodecError(format!("unknown value tag `{other}`"))),
    }
}

/// Decodes a snapshot previously produced by [`encode_snapshot`].
///
/// # Errors
///
/// Returns a [`SnapshotCodecError`] describing the first malformed node.
pub fn decode_snapshot(text: &str) -> Result<BindingSnapshot, SnapshotCodecError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let root = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after snapshot"));
    }

    let mut fn_by_name = HashMap::new();
    for (name, id) in root
        .get("fns")
        .ok_or_else(|| SnapshotCodecError("missing fns".to_string()))?
        .as_obj("fns")?
    {
        fn_by_name.insert(name.clone(), FuncId(id.as_id("fn id")?));
    }

    let mut slots = Vec::new();
    for s in root
        .get("slots")
        .ok_or_else(|| SnapshotCodecError("missing slots".to_string()))?
        .as_arr("slots")?
    {
        slots.push(match s {
            Json::Null => None,
            other => Some(FuncId(other.as_id("slot")?)),
        });
    }

    let mut struct_by_name = HashMap::new();
    for (name, id) in root
        .get("structs")
        .ok_or_else(|| SnapshotCodecError("missing structs".to_string()))?
        .as_obj("structs")?
    {
        struct_by_name.insert(name.clone(), StructId(id.as_id("struct id")?));
    }

    let mut shares = HashMap::new();
    let mut globals = Vec::new();
    for g in root
        .get("globals")
        .ok_or_else(|| SnapshotCodecError("missing globals".to_string()))?
        .as_arr("globals")?
    {
        let name = g
            .get("name")
            .ok_or_else(|| SnapshotCodecError("global without name".to_string()))?
            .as_str("global name")?
            .to_string();
        let ty_text = g
            .get("ty")
            .ok_or_else(|| SnapshotCodecError("global without ty".to_string()))?
            .as_str("global ty")?;
        let ty = parse_ty(ty_text)
            .map_err(|e| SnapshotCodecError(format!("global `{name}` type: {e}")))?;
        let value = decode_value(
            g.get("value")
                .ok_or_else(|| SnapshotCodecError(format!("global `{name}` without value")))?,
            &mut shares,
        )?;
        globals.push(GlobalCell { name, ty, value });
    }

    Ok(BindingSnapshot {
        fn_by_name,
        slots,
        struct_by_name,
        globals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tal::Ty;

    fn cell(name: &str, ty: Ty, value: Value) -> GlobalCell {
        GlobalCell {
            name: name.to_string(),
            ty,
            value,
        }
    }

    fn sample() -> BindingSnapshot {
        let shared = Value::array(vec![Value::Int(1), Value::str("x\"y\n")]);
        let rec = Value::record(
            StructId(3),
            vec![shared.clone(), Value::Fn(FnRef::Slot(SlotId(2)))],
        );
        BindingSnapshot {
            fn_by_name: [
                ("serve".to_string(), FuncId(4)),
                ("log".to_string(), FuncId(9)),
            ]
            .into_iter()
            .collect(),
            slots: vec![Some(FuncId(4)), None, Some(FuncId(9))],
            struct_by_name: [("conn".to_string(), StructId(3))].into_iter().collect(),
            globals: vec![
                cell("hits", Ty::Int, Value::Int(42)),
                cell("buf", Ty::array(Ty::Int), shared.clone()),
                cell("conn0", Ty::named("conn"), rec),
                cell("alias", Ty::array(Ty::Int), shared),
            ],
        }
    }

    #[test]
    fn round_trip_is_deterministic_and_structural() {
        let snap = sample();
        let text = encode_snapshot(&snap);
        assert!(!text.contains('\n'), "one line: {text}");
        let back = decode_snapshot(&text).unwrap();
        assert_eq!(back.fn_by_name, snap.fn_by_name);
        assert_eq!(back.slots, snap.slots);
        assert_eq!(back.struct_by_name, snap.struct_by_name);
        assert_eq!(back.globals.len(), snap.globals.len());
        for (a, b) in back.globals.iter().zip(&snap.globals) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ty, b.ty);
            assert_eq!(a.value, b.value);
        }
        // Deterministic: re-encoding the decode reproduces the bytes.
        assert_eq!(encode_snapshot(&back), text);
    }

    #[test]
    fn aliasing_survives_the_round_trip() {
        let text = encode_snapshot(&sample());
        let back = decode_snapshot(&text).unwrap();
        // globals[1] ("buf") and globals[3] ("alias") share one array, and
        // the record in globals[2] holds the same one: mutating through
        // one handle must be visible through the others.
        let Value::Array(buf) = &back.globals[1].value else {
            panic!("buf decoded as non-array")
        };
        buf.borrow_mut().push(Value::Int(99));
        let Value::Array(alias) = &back.globals[3].value else {
            panic!("alias decoded as non-array")
        };
        assert_eq!(alias.borrow().len(), 3);
        let Value::Record(rec) = &back.globals[2].value else {
            panic!("conn0 decoded as non-record")
        };
        let fields = rec.fields.borrow();
        let Value::Array(inner) = &fields[0] else {
            panic!("record field decoded as non-array")
        };
        assert_eq!(inner.borrow().len(), 3);
    }

    #[test]
    fn live_process_snapshot_round_trips() {
        use crate::process::{LinkMode, Process};
        use tal::{FnSig, Instr, ModuleBuilder};

        let mut b = ModuleBuilder::new("m", "v1");
        b.global("counter", Ty::Int, vec![Instr::PushInt(7), Instr::Ret]);
        b.function("f", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();
        let snap = p.snapshot();
        let text = encode_snapshot(&snap);
        let back = decode_snapshot(&text).unwrap();
        assert_eq!(encode_snapshot(&back), text);
        // The decoded snapshot is restorable.
        p.set_global("counter", Value::Int(100));
        p.restore(back);
        assert_eq!(p.global_value("counter"), Some(Value::Int(7)));
    }

    /// An id is loaded as written or not at all: one past `u32` (or below
    /// zero) would otherwise wrap onto some other function, slot or struct.
    #[test]
    fn an_id_that_does_not_fit_is_refused_not_narrowed() {
        let with = |fns: &str, slots: &str, value: &str| {
            format!(
                "{{\"fns\":{{{fns}}},\"slots\":[{slots}],\"structs\":{{}},\"globals\":\
                 [{{\"name\":\"g\",\"ty\":\"int\",\"value\":{value}}}]}}"
            )
        };
        let int = "{\"t\":\"int\",\"v\":1}";
        assert!(decode_snapshot(&with("\"f\":4", "4", int)).is_ok());
        for bad in [
            with("\"f\":4294967300", "", int),
            with("\"f\":-1", "", int),
            with("", "4294967296", int),
            with("", "", "{\"t\":\"fn\",\"direct\":4294967300}"),
            with("", "", "{\"t\":\"fn\",\"slot\":-7}"),
            with(
                "",
                "",
                "{\"t\":\"rec\",\"id\":1,\"sid\":4294967299,\"v\":[]}",
            ),
            with("", "", "{\"t\":\"arr\",\"id\":-1,\"v\":[]}"),
        ] {
            let e = decode_snapshot(&bad).unwrap_err();
            assert!(e.0.contains("out of range"), "{bad}: {e}");
        }
    }

    /// A decoded snapshot is only as good as the process it lands on:
    /// `fits` names the table or id that `restore` would index past.
    #[test]
    fn fits_rejects_tables_and_ids_the_process_does_not_have() {
        use crate::process::{LinkMode, Process};

        let empty = Process::new(LinkMode::Updateable);
        assert_eq!(empty.snapshot().fits(&empty), Ok(()));
        let snap = sample();
        assert!(snap.fits(&empty).unwrap_err().contains("3 slots"));
        let globals_only = BindingSnapshot {
            fn_by_name: HashMap::new(),
            slots: Vec::new(),
            struct_by_name: HashMap::new(),
            ..snap
        };
        assert!(globals_only.fits(&empty).unwrap_err().contains("4 globals"));
        let named = BindingSnapshot {
            fn_by_name: [("f".to_string(), FuncId(4))].into_iter().collect(),
            globals: Vec::new(),
            ..globals_only
        };
        assert!(named.fits(&empty).unwrap_err().contains("function 4"));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,2]",
            "{\"fns\":{}}",
            &"[".repeat(1 << 20),
            "{\"fns\":{},\"slots\":[],\"structs\":{},\"globals\":[{\"name\":\"g\",\"ty\":\"??\",\"value\":{\"t\":\"int\",\"v\":1}}]}",
            "{\"fns\":{},\"slots\":[],\"structs\":{},\"globals\":[{\"name\":\"g\",\"ty\":\"int\",\"value\":{\"t\":\"ref\",\"id\":5}}]}",
            "{\"fns\":{},\"slots\":[],\"structs\":{},\"globals\":[{\"name\":\"g\",\"ty\":\"int\",\"value\":{\"t\":\"arr\",\"id\":1,\"v\":[{\"t\":\"arr\",\"id\":1,\"v\":[]}]}}]}",
        ] {
            assert!(decode_snapshot(bad).is_err(), "{bad}");
        }
    }
}
