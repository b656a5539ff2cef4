// Seeded violation: a JSON line spelled by hand outside the codec.
// Never compiled — lain_lint.py --self-test asserts the json-literal
// rule reports it.  Hand-built lines drift from the codec's string
// rule: this one lets a quote in `job` break the frame.
#include <string>

std::string cancel_frame(const std::string& job) {
  return "{\"type\":\"cancel\",\"job\":\"" + job + "\"}";  // violation
}

// Keys in comments, "{\"type\":\"bye\"}", are not code.
std::string plain_text() { return "\"quoted\" text: fine"; }
