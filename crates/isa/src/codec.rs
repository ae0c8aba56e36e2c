//! The compact binary record of one µop: a tag byte, then its
//! little-endian operands. The corpus store ([`crate::corpus`]) frames
//! runs of these records into CRC-checked blocks; this module is only
//! the per-op encoding.

use std::io::{self, Read, Write};

use crate::Op;

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

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes one op record (tag byte + little-endian operands), the unit
/// the corpus store's CRC-framed blocks hold.
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

/// Decodes one op record whose tag byte has already been consumed —
/// the counterpart of [`write_op`].
///
/// # Errors
///
/// Fails on an unknown tag or a truncated record.
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
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown op tag {other}"),
            ))
        }
    })
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

    fn encode(ops: &[Op]) -> Vec<u8> {
        let mut buf = Vec::new();
        for op in ops {
            write_op(&mut buf, op).unwrap();
        }
        buf
    }

    /// Decodes back-to-back records until the bytes run out.
    fn decode(mut bytes: &[u8]) -> io::Result<Vec<Op>> {
        let mut ops = Vec::new();
        while let Some((&tag, rest)) = bytes.split_first() {
            bytes = rest;
            ops.push(read_op(tag, &mut bytes)?);
        }
        Ok(ops)
    }

    #[test]
    fn roundtrip_every_op_kind() {
        let ops = sample_ops();
        assert_eq!(decode(&encode(&ops)).unwrap(), ops);
    }

    #[test]
    fn truncated_record_is_an_error_not_silence() {
        let mut buf = encode(&[Op::Load {
            pointer: 0x1234,
            bytes: 8,
            chained: false,
        }]);
        buf.truncate(buf.len() - 3);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = decode(&[200]).unwrap_err();
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
                prop_assert_eq!(decode(&encode(&ops)).unwrap(), ops);
            }
        }
    }

    #[test]
    fn compact_encoding() {
        // IntAlu is its tag byte alone.
        let ops = vec![Op::IntAlu; 1000];
        assert_eq!(encode(&ops).len(), 1000);
    }
}
