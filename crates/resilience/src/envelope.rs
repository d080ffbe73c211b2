//! Self-describing message envelopes for the fault-injectable data
//! plane.
//!
//! Every frame is a `Vec<f64>` (the communicator's one message type,
//! so it rides the data plane where the fault injector operates) whose first five
//! words are u64 bit patterns: magic+kind, sequence number, tag (the
//! exchange round), membership epoch, payload length, and a
//! CRC-64/XZ over header and payload. Any single corruption — a mantissa bit-flip in the
//! payload, a flipped kind, a truncated buffer, a mangled length —
//! surfaces as a typed [`FrameError`] at decode rather than as silent
//! physics corruption downstream.

use oppic_core::Crc64;
use std::fmt;

/// Bit pattern of header word 0, xor'd with the [`Frame`]
/// kind discriminant. ASCII "OPPIC-RE".
pub const MAGIC: u64 = 0x4F50_5049_432D_5245;

/// Words of header before the payload.
pub const HEADER_WORDS: usize = 6;

/// Decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A payload-carrying frame; `seq` counts retransmission attempts
    /// (diagnostic only — delivery is deduplicated by `(src, tag)`).
    Data {
        seq: u64,
        tag: u64,
        epoch: u64,
        payload: Vec<f64>,
    },
    /// Receipt acknowledgement for round `tag`.
    Ack { seq: u64, tag: u64, epoch: u64 },
    /// "Your frame arrived corrupt — retransmit round `tag` now."
    Nack { seq: u64, tag: u64, epoch: u64 },
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer words than a header.
    TooShort { words: usize },
    /// Header word 0 does not carry the magic.
    BadMagic { word: u64 },
    /// Magic ok but the kind discriminant is unknown.
    BadKind { kind: u64 },
    /// Stated payload length disagrees with the buffer.
    LengthMismatch { stated: u64, actual: usize },
    /// CRC-64 over header + payload does not match.
    ChecksumMismatch { stored: u64, computed: u64 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort { words } => {
                write!(
                    f,
                    "frame too short: {words} words, header needs {HEADER_WORDS}"
                )
            }
            FrameError::BadMagic { word } => write!(f, "bad frame magic: {word:#018x}"),
            FrameError::BadKind { kind } => write!(f, "unknown frame kind: {kind}"),
            FrameError::LengthMismatch { stated, actual } => {
                write!(
                    f,
                    "payload length mismatch: header says {stated}, buffer has {actual}"
                )
            }
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame CRC-64 mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-64 over the first five header words and the payload bits.
/// Word 0 is included so a flipped kind discriminant is caught.
fn frame_crc(header: &[u64; 5], payload: &[f64]) -> u64 {
    let mut crc = Crc64::new();
    for w in header {
        crc.update(&w.to_le_bytes());
    }
    for v in payload {
        crc.update(&v.to_bits().to_le_bytes());
    }
    crc.value()
}

fn encode_raw(kind: u64, seq: u64, tag: u64, epoch: u64, payload: &[f64]) -> Vec<f64> {
    let header = [MAGIC ^ kind, seq, tag, epoch, payload.len() as u64];
    let crc = frame_crc(&header, payload);
    let mut out = Vec::with_capacity(HEADER_WORDS + payload.len());
    out.extend(header.iter().map(|&w| f64::from_bits(w)));
    out.push(f64::from_bits(crc));
    out.extend_from_slice(payload);
    out
}

/// Encode a data frame stamped with the sender's membership epoch.
pub fn encode_data(seq: u64, tag: u64, epoch: u64, payload: &[f64]) -> Vec<f64> {
    encode_raw(0, seq, tag, epoch, payload)
}

/// Encode an ack frame (no payload).
pub fn encode_ack(seq: u64, tag: u64, epoch: u64) -> Vec<f64> {
    encode_raw(1, seq, tag, epoch, &[])
}

/// Encode a nack frame (no payload).
pub fn encode_nack(seq: u64, tag: u64, epoch: u64) -> Vec<f64> {
    encode_raw(2, seq, tag, epoch, &[])
}

/// Decode and integrity-check a frame buffer.
pub fn decode(words: &[f64]) -> Result<Frame, FrameError> {
    if words.len() < HEADER_WORDS {
        return Err(FrameError::TooShort { words: words.len() });
    }
    let w0 = words[0].to_bits();
    let kind = w0 ^ MAGIC;
    // The kind discriminant lives in the low bits; anything with high
    // bits set means the magic itself is wrong.
    if kind > 0xFF {
        return Err(FrameError::BadMagic { word: w0 });
    }
    let seq = words[1].to_bits();
    let tag = words[2].to_bits();
    let epoch = words[3].to_bits();
    let stated = words[4].to_bits();
    let stored = words[5].to_bits();
    let payload = &words[HEADER_WORDS..];
    if stated != payload.len() as u64 {
        return Err(FrameError::LengthMismatch {
            stated,
            actual: payload.len(),
        });
    }
    let computed = frame_crc(&[w0, seq, tag, epoch, stated], payload);
    if computed != stored {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    match kind {
        0 => Ok(Frame::Data {
            seq,
            tag,
            epoch,
            payload: payload.to_vec(),
        }),
        1 => Ok(Frame::Ack { seq, tag, epoch }),
        2 => Ok(Frame::Nack { seq, tag, epoch }),
        k => Err(FrameError::BadKind { kind: k }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frame_round_trips() {
        let payload = [1.5, -2.25, f64::MAX, 0.0, 1e-300];
        let buf = encode_data(3, 42, 9, &payload);
        assert_eq!(buf.len(), HEADER_WORDS + payload.len());
        assert_eq!(
            decode(&buf).unwrap(),
            Frame::Data {
                seq: 3,
                tag: 42,
                epoch: 9,
                payload: payload.to_vec()
            }
        );
    }

    #[test]
    fn ack_and_nack_round_trip() {
        assert_eq!(
            decode(&encode_ack(0, 7, 2)).unwrap(),
            Frame::Ack {
                seq: 0,
                tag: 7,
                epoch: 2
            }
        );
        assert_eq!(
            decode(&encode_nack(1, 9, 3)).unwrap(),
            Frame::Nack {
                seq: 1,
                tag: 9,
                epoch: 3
            }
        );
    }

    #[test]
    fn empty_payload_is_valid() {
        let buf = encode_data(0, 0, 0, &[]);
        assert_eq!(
            decode(&buf).unwrap(),
            Frame::Data {
                seq: 0,
                tag: 0,
                epoch: 0,
                payload: vec![]
            }
        );
    }

    #[test]
    fn payload_bit_flip_is_caught() {
        let mut buf = encode_data(0, 5, 0, &[3.25, 4.5]);
        let i = HEADER_WORDS + 1;
        buf[i] = f64::from_bits(buf[i].to_bits() ^ (1 << 17));
        assert!(matches!(
            decode(&buf),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn kind_flip_is_caught_by_checksum() {
        // Data -> Ack is a single low-bit flip in word 0; the CRC
        // covers word 0, so the masquerade fails integrity.
        let mut buf = encode_data(0, 5, 0, &[1.0]);
        buf[0] = f64::from_bits(buf[0].to_bits() ^ 1);
        assert!(matches!(
            decode(&buf),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_garbage_are_caught() {
        let buf = encode_data(0, 5, 0, &[1.0, 2.0]);
        assert!(matches!(
            decode(&buf[..buf.len() - 1]),
            Err(FrameError::LengthMismatch { .. })
        ));
        assert!(matches!(
            decode(&buf[..3]),
            Err(FrameError::TooShort { words: 3 })
        ));
        assert!(matches!(
            decode(&[0.0; 8]),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn epoch_word_corruption_is_caught() {
        // A zombie cannot forge a current-epoch frame by flipping the
        // epoch word: the CRC covers it.
        let mut buf = encode_data(0, 5, 1, &[1.0]);
        buf[3] = f64::from_bits(buf[3].to_bits() ^ 2);
        assert!(matches!(
            decode(&buf),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn length_word_corruption_is_caught() {
        let mut buf = encode_data(0, 5, 0, &[1.0, 2.0]);
        buf[4] = f64::from_bits(buf[4].to_bits() ^ 1);
        assert!(matches!(
            decode(&buf),
            Err(FrameError::LengthMismatch { .. })
        ));
    }
}
