//! Tokenisation of XML text content and query strings.
//!
//! SEDA's full-text indexes (node postings and the keyword→path context index
//! of Fig. 8) share one tokenizer so that query keywords and indexed content
//! agree on term boundaries.  Tokens are lower-cased alphanumeric runs;
//! punctuation separates tokens; decimal numbers such as `16.9` are kept as a
//! single token because percentages and monetary values (`12.31T`) are
//! first-class content in the Factbook corpus.
//!
//! The tokenizer is one crate-private visitor, `for_each_term`: it walks the text once
//! and lends each token to its caller from one reused buffer, so the index
//! builds pay a `String` only for a term they keep.  ASCII bytes take a fast
//! path; every other character goes through `char::is_alphanumeric` and
//! `char::to_lowercase`, which agree with the fast path on ASCII.  [`terms`]
//! is the collecting wrapper over the visitor, for callers that want the
//! tokens as a list (query text, tag names).

/// Splits text into normalised tokens, in text order (the one tokenizer:
/// indexed content, tag names and query keywords all pass through it).
pub fn terms(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_term(text, &mut String::new(), |token| tokens.push(token.to_string()));
    tokens
}

/// Calls `visit` with each normalised token of `text`, in text order: the
/// tokens of [`terms`], lent from `buf` instead of returned as strings.
/// `buf` is scratch space the caller keeps across calls so that it grows
/// only to the longest token; its contents on return are unspecified.
pub(crate) fn for_each_term(text: &str, buf: &mut String, mut visit: impl FnMut(&str)) {
    buf.clear();
    // Whether every character of the token so far is an ASCII digit: only
    // such a token may take a decimal point.
    let mut digits = true;
    let bytes = text.as_bytes();
    let mut at = 0;
    while let Some(&byte) = bytes.get(at) {
        if byte.is_ascii() {
            at += 1;
            if byte.is_ascii_alphanumeric() {
                digits &= byte.is_ascii_digit();
                buf.push(byte.to_ascii_lowercase() as char);
            } else if byte == b'.'
                && digits
                && !buf.is_empty()
                && bytes.get(at).is_some_and(u8::is_ascii_digit)
            {
                // Keep decimal points inside numbers ("16.9", "12.31") but
                // only if a digit follows; a trailing period ends the token.
                digits = false;
                buf.push('.');
            } else {
                flush(buf, &mut digits, &mut visit);
            }
            continue;
        }
        let Some(c) = text[at..].chars().next() else { break };
        at += c.len_utf8();
        if c.is_alphanumeric() {
            // `İ` lower-cases to `i` and a combining dot, which is no
            // alphanumeric: keeping it would split the token on a second pass.
            for lower in c.to_lowercase().filter(|l| l.is_alphanumeric()) {
                digits &= lower.is_ascii_digit();
                buf.push(lower);
            }
        } else {
            flush(buf, &mut digits, &mut visit);
        }
    }
    flush(buf, &mut digits, &mut visit);
}

fn flush(buf: &mut String, digits: &mut bool, visit: &mut impl FnMut(&str)) {
    if !buf.is_empty() {
        visit(buf);
        buf.clear();
    }
    *digits = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases_and_splits_on_whitespace() {
        assert_eq!(terms("United States"), vec!["united", "states"]);
    }

    #[test]
    fn punctuation_separates_tokens() {
        assert_eq!(terms("import-partners, 2006"), vec!["import", "partners", "2006"]);
    }

    #[test]
    fn tokens_are_their_own_tokens() {
        assert_eq!(terms("İstanbul"), vec!["istanbul"]);
        for token in terms("İstanbul 16.9 GDP") {
            assert_eq!(terms(&token), vec![token.clone()]);
        }
    }

    #[test]
    fn decimal_numbers_stay_together() {
        assert_eq!(terms("16.9%"), vec!["16.9"]);
        assert_eq!(terms("GDP 12.31T"), vec!["gdp", "12.31t"]);
    }

    #[test]
    fn trailing_period_is_dropped() {
        assert_eq!(terms("China."), vec!["china"]);
        assert_eq!(terms("15."), vec!["15"]);
    }

    #[test]
    fn empty_and_symbol_only_text_has_no_tokens() {
        assert!(terms("").is_empty());
        assert!(terms("--- %% !!").is_empty());
    }

    #[test]
    fn unicode_text_is_handled() {
        assert_eq!(terms("Côte d'Ivoire"), vec!["côte", "d", "ivoire"]);
        assert_eq!(terms("北京 2006"), vec!["北京", "2006"]);
    }

    #[test]
    fn underscores_separate_tokens() {
        // Tag names such as `trade_country` tokenize into their words so a
        // keyword query for "country" also hits the tag vocabulary.
        assert_eq!(terms("trade_country"), vec!["trade", "country"]);
    }
}
