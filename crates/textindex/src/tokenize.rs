//! Tokenisation of XML text content and query strings.
//!
//! SEDA's full-text indexes (node postings and the keyword→path context index
//! of Fig. 8) share one tokenizer so that query keywords and indexed content
//! agree on term boundaries.  Tokens are lower-cased alphanumeric runs;
//! punctuation separates tokens; decimal numbers such as `16.9` are kept as a
//! single token because percentages and monetary values (`12.31T`) are
//! first-class content in the Factbook corpus.

/// Splits text into normalised tokens, in text order (the one tokenizer:
/// indexed content, tag names and query keywords all pass through it).
pub fn terms(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if c.is_alphanumeric() {
            // `İ` lower-cases to `i` and a combining dot, which is no
            // alphanumeric: keeping it would split the token on a second pass.
            current.extend(c.to_lowercase().filter(|l| l.is_alphanumeric()));
        } else if c == '.' && !current.is_empty() && current.chars().all(|c| c.is_ascii_digit()) {
            // Keep decimal points inside numbers ("16.9", "12.31") but only if
            // a digit follows; a trailing period ends the token.
            if chars.peek().map(|n| n.is_ascii_digit()).unwrap_or(false) {
                current.push('.');
            } else {
                flush(&mut tokens, &mut current);
            }
        } else {
            flush(&mut tokens, &mut current);
        }
    }
    flush(&mut tokens, &mut current);
    tokens
}

fn flush(tokens: &mut Vec<String>, current: &mut String) {
    if !current.is_empty() {
        tokens.push(std::mem::take(current));
    }
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
