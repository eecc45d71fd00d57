//! Error type shared by the codec and the frame protocol.

use std::fmt;

/// Result alias for all `wire` operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong while encoding or decoding.
#[derive(Debug)]
pub enum Error {
    /// Input ended before the value was complete.
    Eof,
    /// Input contained bytes beyond the end of the value.
    TrailingBytes,
    /// A varint ran past ten bytes (would overflow `u64`).
    VarintOverflow,
    /// A declared length did not fit in `usize` or exceeded a frame cap.
    LengthOverflow(u64),
    /// An integer did not fit the type it was read as, e.g. a varint of
    /// 300 read as a `u8`; a negative value is reported by its magnitude.
    IntegerOverflow(u64),
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A `char` scalar value was out of range.
    InvalidChar(u32),
    /// String data was not valid UTF-8.
    InvalidUtf8,
    /// An enum variant index was out of range for the target type.
    InvalidVariant(u32),
    /// Underlying I/O failure (frame reader/writer only).
    Io(std::io::Error),
    /// Error raised by an `Encode`/`Decode` implementation.
    Custom(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Eof => write!(f, "unexpected end of input"),
            Error::TrailingBytes => write!(f, "trailing bytes after value"),
            Error::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            Error::LengthOverflow(n) => write!(f, "declared length {n} too large"),
            Error::IntegerOverflow(n) => write!(f, "integer {n} does not fit its type"),
            Error::InvalidBool(b) => write!(f, "invalid bool byte {b:#x}"),
            Error::InvalidChar(c) => write!(f, "invalid char scalar {c:#x}"),
            Error::InvalidUtf8 => write!(f, "string data is not valid UTF-8"),
            Error::InvalidVariant(v) => write!(f, "enum variant index {v} out of range"),
            Error::Io(e) => write!(f, "frame I/O error: {e}"),
            Error::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::Eof.to_string().contains("end of input"));
        assert!(Error::InvalidBool(7).to_string().contains("0x7"));
        assert!(Error::LengthOverflow(u64::MAX)
            .to_string()
            .contains("too large"));
        assert!(Error::IntegerOverflow(300)
            .to_string()
            .contains("integer 300 does not fit"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
