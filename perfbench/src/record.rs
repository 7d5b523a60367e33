//! The one-line JSON record a benchmark process prints for `run.py`.

use std::fmt::Write;

/// A flat JSON object built in insertion order.
#[derive(Default)]
pub struct Record {
    body: String,
}

impl Record {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{key}\":");
    }

    /// A number; non-finite values become `null` so the reader rejects them.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// A whole number.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// A string without quotes or backslashes.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "\"{}\"", value.replace(['"', '\\'], "'"));
        self
    }

    /// A list of strings.
    pub fn texts(&mut self, key: &str, values: &[String]) -> &mut Self {
        self.key(key);
        let items: Vec<String> = values
            .iter()
            .map(|v| format!("\"{}\"", v.replace(['"', '\\'], "'")))
            .collect();
        let _ = write!(self.body, "[{}]", items.join(","));
        self
    }

    /// A list of numbers.
    pub fn nums(&mut self, key: &str, values: &[f64]) -> &mut Self {
        self.key(key);
        let items: Vec<String> = values
            .iter()
            .map(|v| {
                if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                }
            })
            .collect();
        let _ = write!(self.body, "[{}]", items.join(","));
        self
    }

    /// A nested object.
    pub fn object(&mut self, key: &str, value: &Record) -> &mut Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }
}

impl std::fmt::Display for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.body)
    }
}

/// FNV-1a over `text`: the digest of a rendered report.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, fnv1a_byte)
}

/// Folds the little-endian bytes of `word` into an FNV-1a `hash`.
pub fn fnv1a_word(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().into_iter().fold(hash, fnv1a_byte)
}

fn fnv1a_byte(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
}
