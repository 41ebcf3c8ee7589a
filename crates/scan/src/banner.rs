//! HTTPS banners.
//!
//! Censys stores the HTTP(S) response banner per scanned host; §4.2.2
//! queries *"for all IPs with the same certificate and HTTPS banner
//! checksum"*. We model a banner as its `Server`-style identity line plus
//! the checksum Censys computes.

use std::fmt;

/// An HTTPS banner observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpsBanner {
    /// The identity line the server returned (e.g.
    /// `nginx/1.14 (deva-backend)`).
    pub server_line: String,
    /// Checksum of the full banner body.
    pub checksum: u64,
}

impl HttpsBanner {
    /// Build a banner; the checksum is derived from the full body text.
    pub fn new(server_line: impl Into<String>, body: &str) -> HttpsBanner {
        let server_line = server_line.into();
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        for b in server_line.bytes().chain(body.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
            h = h.rotate_left(5);
        }
        HttpsBanner {
            server_line,
            checksum: h,
        }
    }
}

impl fmt::Display for HttpsBanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "banner[{:016x}: {}]", self.checksum, self.server_line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_distinguishes_bodies() {
        let a = HttpsBanner::new("nginx", "body-a");
        let b = HttpsBanner::new("nginx", "body-b");
        assert_ne!(a.checksum, b.checksum);
        assert_eq!(a, HttpsBanner::new("nginx", "body-a"));
    }
}
