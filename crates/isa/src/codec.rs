//! A compact binary codec for dynamic traces.
//!
//! Lets users capture a generated (or custom) µop stream once and
//! replay it against different machine configurations — the workflow
//! gem5 users know as trace capture/replay. The format is
//! self-describing: a magic/version header, a metadata string (e.g.
//! the workload and system that produced the trace), then one record
//! per op with a tag byte and little-endian operands.

use std::io::{self, Read, Write};

use aos_util::AosError;

use crate::Op;

/// File magic: "AOST".
const MAGIC: [u8; 4] = *b"AOST";
/// Format version.
const VERSION: u16 = 1;

// Op tags.
const TAG_INT_ALU: u8 = 0;
const TAG_INT_MUL: u8 = 1;
const TAG_FP_ALU: u8 = 2;
const TAG_BRANCH: u8 = 3;
const TAG_LOAD: u8 = 4;
const TAG_STORE: u8 = 5;
const TAG_PACMA: u8 = 6;
const TAG_XPACM: u8 = 7;
const TAG_AUTM: u8 = 8;
const TAG_PAC_CRYPTO: u8 = 9;
const TAG_BNDSTR: u8 = 10;
const TAG_BNDCLR: u8 = 11;
const TAG_WDCHECK: u8 = 12;
const TAG_WDMETA: u8 = 13;

/// Writes a trace: header, metadata, ops; returns the op count.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
///
/// # Examples
///
/// ```
/// use aos_isa::{codec, Op};
/// let ops = vec![Op::IntAlu, Op::Load { pointer: 0x40, bytes: 8, chained: false }];
/// let mut buf = Vec::new();
/// codec::write_trace(&mut buf, "demo", ops.iter().copied())?;
/// let (meta, decoded) = codec::read_trace(&buf[..])?;
/// assert_eq!(meta, "demo");
/// assert_eq!(decoded, ops);
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_trace<W: Write>(
    mut writer: W,
    metadata: &str,
    ops: impl Iterator<Item = Op>,
) -> io::Result<u64> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let meta = metadata.as_bytes();
    writer.write_all(&(meta.len() as u32).to_le_bytes())?;
    writer.write_all(meta)?;
    let mut count = 0u64;
    for op in ops {
        write_op(&mut writer, &op)?;
        count += 1;
    }
    Ok(count)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes one op record (tag byte + little-endian operands) — the
/// unit encoding shared by whole-trace files and the corpus store's
/// CRC-framed blocks.
pub(crate) fn write_op<W: Write>(w: &mut W, op: &Op) -> io::Result<()> {
    match *op {
        Op::IntAlu => w.write_all(&[TAG_INT_ALU]),
        Op::IntMul => w.write_all(&[TAG_INT_MUL]),
        Op::FpAlu => w.write_all(&[TAG_FP_ALU]),
        Op::Branch {
            pc,
            taken,
            mispredicted,
        } => {
            w.write_all(&[TAG_BRANCH, taken as u8, mispredicted as u8])?;
            write_u64(w, pc)
        }
        Op::Load {
            pointer,
            bytes,
            chained,
        } => {
            w.write_all(&[TAG_LOAD, chained as u8])?;
            w.write_all(&bytes.to_le_bytes())?;
            write_u64(w, pointer)
        }
        Op::Store { pointer, bytes } => {
            w.write_all(&[TAG_STORE])?;
            w.write_all(&bytes.to_le_bytes())?;
            write_u64(w, pointer)
        }
        Op::Pacma { pointer, size } => {
            w.write_all(&[TAG_PACMA])?;
            write_u64(w, pointer)?;
            write_u64(w, size)
        }
        Op::Xpacm => w.write_all(&[TAG_XPACM]),
        Op::Autm { pointer } => {
            w.write_all(&[TAG_AUTM])?;
            write_u64(w, pointer)
        }
        Op::PacCrypto => w.write_all(&[TAG_PAC_CRYPTO]),
        Op::BndStr { pointer, size } => {
            w.write_all(&[TAG_BNDSTR])?;
            write_u64(w, pointer)?;
            write_u64(w, size)
        }
        Op::BndClr { pointer } => {
            w.write_all(&[TAG_BNDCLR])?;
            write_u64(w, pointer)
        }
        Op::WdCheck { pointer } => {
            w.write_all(&[TAG_WDCHECK])?;
            write_u64(w, pointer)
        }
        Op::WdMeta { pointer, is_store } => {
            w.write_all(&[TAG_WDMETA, is_store as u8])?;
            write_u64(w, pointer)
        }
    }
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    // Distinguish clean EOF (no bytes) from a truncated record.
    let mut first = [0u8; 1];
    match r.read(&mut first)? {
        0 => return Ok(false),
        1 => buf[0] = first[0],
        _ => unreachable!("read of 1 byte"),
    }
    r.read_exact(&mut buf[1..])?;
    Ok(true)
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads a whole trace back: `(metadata, ops)`.
///
/// # Errors
///
/// Fails on bad magic, unsupported version, unknown tags or truncated
/// records, as well as on underlying I/O errors.
pub fn read_trace<R: Read>(mut reader: R) -> io::Result<(String, Vec<Op>)> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(bad("not an AOS trace (bad magic)"));
    }
    let mut version = [0u8; 2];
    reader.read_exact(&mut version)?;
    if u16::from_le_bytes(version) != VERSION {
        return Err(bad("unsupported trace version"));
    }
    let meta_len = read_u32(&mut reader)? as usize;
    if meta_len > 1 << 20 {
        return Err(bad("metadata too large"));
    }
    let mut meta = vec![0u8; meta_len];
    reader.read_exact(&mut meta)?;
    let metadata =
        String::from_utf8(meta).map_err(|_| bad("metadata is not UTF-8"))?;

    let mut ops = Vec::new();
    let mut tag = [0u8; 1];
    while read_exact_or_eof(&mut reader, &mut tag)? {
        ops.push(read_op(tag[0], &mut reader)?);
    }
    Ok((metadata, ops))
}

/// Decodes one op record whose tag byte has already been consumed —
/// the counterpart of [`write_op`], shared with the corpus store.
pub(crate) fn read_op<R: Read>(tag: u8, reader: &mut R) -> io::Result<Op> {
    Ok(match tag {
        TAG_INT_ALU => Op::IntAlu,
        TAG_INT_MUL => Op::IntMul,
        TAG_FP_ALU => Op::FpAlu,
        TAG_BRANCH => {
            let mut flags = [0u8; 2];
            reader.read_exact(&mut flags)?;
            Op::Branch {
                taken: flags[0] != 0,
                mispredicted: flags[1] != 0,
                pc: read_u64(reader)?,
            }
        }
        TAG_LOAD => {
            let mut chained = [0u8; 1];
            reader.read_exact(&mut chained)?;
            let bytes = read_u32(reader)?;
            Op::Load {
                chained: chained[0] != 0,
                bytes,
                pointer: read_u64(reader)?,
            }
        }
        TAG_STORE => {
            let bytes = read_u32(reader)?;
            Op::Store {
                bytes,
                pointer: read_u64(reader)?,
            }
        }
        TAG_PACMA => Op::Pacma {
            pointer: read_u64(reader)?,
            size: read_u64(reader)?,
        },
        TAG_XPACM => Op::Xpacm,
        TAG_AUTM => Op::Autm {
            pointer: read_u64(reader)?,
        },
        TAG_PAC_CRYPTO => Op::PacCrypto,
        TAG_BNDSTR => Op::BndStr {
            pointer: read_u64(reader)?,
            size: read_u64(reader)?,
        },
        TAG_BNDCLR => Op::BndClr {
            pointer: read_u64(reader)?,
        },
        TAG_WDCHECK => Op::WdCheck {
            pointer: read_u64(reader)?,
        },
        TAG_WDMETA => {
            let mut is_store = [0u8; 1];
            reader.read_exact(&mut is_store)?;
            Op::WdMeta {
                is_store: is_store[0] != 0,
                pointer: read_u64(reader)?,
            }
        }
        other => return Err(bad(&format!("unknown op tag {other}"))),
    })
}

/// Reads a trace from a file, lifting failures into the shared
/// [`AosError`] taxonomy with the path as context: I/O problems become
/// [`AosError::Io`], malformed bytes become [`AosError::Corruption`].
///
/// # Errors
///
/// As above — every failure mode of [`read_trace`] plus `open`.
pub fn read_trace_file(path: &std::path::Path) -> Result<(String, Vec<Op>), AosError> {
    let file = std::fs::File::open(path).map_err(|e| AosError::Io {
        context: path.display().to_string(),
        detail: e.to_string(),
    })?;
    read_trace(std::io::BufReader::new(file)).map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => {
            AosError::corruption(format!("trace {}", path.display()), e)
        }
        _ => AosError::Io {
            context: path.display().to_string(),
            detail: e.to_string(),
        },
    })
}

/// Writes a trace to a file, lifting failures into [`AosError::Io`]
/// with the path as context; returns the op count like
/// [`write_trace`].
///
/// # Errors
///
/// Any I/O failure from `create` or the writes.
pub fn write_trace_file(
    path: &std::path::Path,
    metadata: &str,
    ops: impl Iterator<Item = Op>,
) -> Result<u64, AosError> {
    let io_err = |e: io::Error| AosError::Io {
        context: path.display().to_string(),
        detail: e.to_string(),
    };
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut writer = std::io::BufWriter::new(file);
    let count = write_trace(&mut writer, metadata, ops).map_err(io_err)?;
    writer.flush().map_err(io_err)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::IntAlu,
            Op::IntMul,
            Op::FpAlu,
            Op::Branch {
                pc: 0x400100,
                taken: true,
                mispredicted: false,
            },
            Op::Load {
                pointer: 0xABCD_0000_1234,
                bytes: 8,
                chained: true,
            },
            Op::Store {
                pointer: 0x4000_0010,
                bytes: 4,
            },
            Op::Pacma {
                pointer: 0x4000_0010,
                size: 64,
            },
            Op::Xpacm,
            Op::Autm { pointer: 0x77 },
            Op::PacCrypto,
            Op::BndStr {
                pointer: 0x4000_0010,
                size: 64,
            },
            Op::BndClr { pointer: 0x4000_0010 },
            Op::WdCheck { pointer: 0x9 },
            Op::WdMeta {
                pointer: 0x9,
                is_store: true,
            },
        ]
    }

    #[test]
    fn roundtrip_every_op_kind() {
        let ops = sample_ops();
        let mut buf = Vec::new();
        let n = write_trace(&mut buf, "unit test", ops.iter().copied()).unwrap();
        assert_eq!(n, ops.len() as u64);
        let (meta, decoded) = read_trace(&buf[..]).unwrap();
        assert_eq!(meta, "unit test");
        assert_eq!(decoded, ops);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, "", std::iter::empty()).unwrap();
        let (meta, decoded) = read_trace(&buf[..]).unwrap();
        assert!(meta.is_empty());
        assert!(decoded.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOPE\x01\x00\x00\x00\x00\x00".to_vec();
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, "x", std::iter::empty()).unwrap();
        buf[4] = 99; // corrupt version
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn truncated_record_is_an_error_not_silence() {
        let mut buf = Vec::new();
        write_trace(
            &mut buf,
            "x",
            std::iter::once(Op::Load {
                pointer: 0x1234,
                bytes: 8,
                chained: false,
            }),
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, "x", std::iter::empty()).unwrap();
        buf.push(200);
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("tag"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                Just(Op::IntAlu),
                Just(Op::IntMul),
                Just(Op::FpAlu),
                Just(Op::Xpacm),
                Just(Op::PacCrypto),
                (any::<u64>(), any::<bool>(), any::<bool>()).prop_map(|(pc, taken, mispredicted)| {
                    Op::Branch { pc, taken, mispredicted }
                }),
                (any::<u64>(), any::<u32>(), any::<bool>()).prop_map(|(pointer, bytes, chained)| {
                    Op::Load { pointer, bytes, chained }
                }),
                (any::<u64>(), any::<u32>()).prop_map(|(pointer, bytes)| Op::Store { pointer, bytes }),
                (any::<u64>(), any::<u64>()).prop_map(|(pointer, size)| Op::Pacma { pointer, size }),
                any::<u64>().prop_map(|pointer| Op::Autm { pointer }),
                (any::<u64>(), any::<u64>()).prop_map(|(pointer, size)| Op::BndStr { pointer, size }),
                any::<u64>().prop_map(|pointer| Op::BndClr { pointer }),
                any::<u64>().prop_map(|pointer| Op::WdCheck { pointer }),
                (any::<u64>(), any::<bool>()).prop_map(|(pointer, is_store)| Op::WdMeta {
                    pointer,
                    is_store
                }),
            ]
        }

        proptest! {
            #[test]
            fn any_trace_roundtrips(ops in proptest::collection::vec(op_strategy(), 0..200)) {
                let mut buf = Vec::new();
                write_trace(&mut buf, "prop", ops.iter().copied()).unwrap();
                let (meta, decoded) = read_trace(&buf[..]).unwrap();
                prop_assert_eq!(meta, "prop");
                prop_assert_eq!(decoded, ops);
            }
        }
    }

    #[test]
    fn compact_encoding() {
        // IntAlu is 1 byte; the whole sample fits in well under
        // fixed-width-per-op encodings.
        let mut buf = Vec::new();
        write_trace(&mut buf, "", (0..1000).map(|_| Op::IntAlu)).unwrap();
        assert!(buf.len() < 1024 + 16, "1 byte per IntAlu: {}", buf.len());
    }

    #[test]
    fn file_helpers_roundtrip_and_type_their_errors() {
        let dir = aos_util::TestDir::new("isa-codec-file-helpers").unwrap();
        let path = dir.join("trace.aost");
        let ops = sample_ops();
        let n = write_trace_file(&path, "file test", ops.iter().copied()).unwrap();
        assert_eq!(n, ops.len() as u64);
        let (meta, decoded) = read_trace_file(&path).unwrap();
        assert_eq!(meta, "file test");
        assert_eq!(decoded, ops);

        // A missing file is an I/O error carrying the path.
        let missing = dir.join("nope.aost");
        let err = read_trace_file(&missing).unwrap_err();
        assert!(matches!(err, AosError::Io { .. }), "{err}");
        assert!(err.to_string().contains("nope.aost"));

        // Garbage bytes are classified as corruption, not I/O.
        let garbage = dir.join("garbage.aost");
        std::fs::write(&garbage, b"NOT A TRACE").unwrap();
        let err = read_trace_file(&garbage).unwrap_err();
        assert!(matches!(err, AosError::Corruption { .. }), "{err}");
        assert!(err.to_string().contains("bad magic"));
    }
}
