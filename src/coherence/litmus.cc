/**
 * @file
 * Litmus scenario catalogue and the differential runner. Offsets per
 * scenario deliberately span the three sharing granularities: within
 * one 64B cache line, across lines of one 4KB page, and across pages.
 */

#include "coherence/litmus.h"

#include "common/logging.h"
#include "common/rng.h"
#include "rack/multi_rack.h"

namespace kona {

namespace {

// Location offsets used by the catalogue.
constexpr Addr kA = 0;              // line 0 of page 0
constexpr Addr kASameLine = 8;      // still line 0 of page 0
constexpr Addr kB = 64;             // line 1 of page 0
constexpr Addr kC = 512;            // line 8 of page 0
constexpr Addr kPage1 = 4096;       // line 0 of page 1
constexpr Addr kPage2 = 8192;       // line 0 of page 2
constexpr Addr kPage3 = 12288 + 128; // line 2 of page 3

constexpr bool St = true;
constexpr bool Ld = false;

LitmusScenario
make(std::string name, std::vector<Addr> locs,
     std::vector<std::vector<LitmusOp>> programs)
{
    LitmusScenario s;
    s.name = std::move(name);
    s.locOffsets = std::move(locs);
    s.programs = std::move(programs);
    return s;
}

std::vector<LitmusScenario>
buildScenarios()
{
    std::vector<LitmusScenario> all;

    // --- message passing: flag publishes data ------------------------
    all.push_back(make("MP_same_page", {kA, kB},
        {{{St, 0, 1}, {St, 1, 1}},
         {{Ld, 1, 0}, {Ld, 0, 0}}}));
    all.push_back(make("MP_same_line", {kA, kASameLine},
        {{{St, 0, 1}, {St, 1, 1}},
         {{Ld, 1, 0}, {Ld, 0, 0}}}));
    all.push_back(make("MP_cross_page", {kA, kPage1},
        {{{St, 0, 1}, {St, 1, 1}},
         {{Ld, 1, 0}, {Ld, 0, 0}}}));
    all.push_back(make("MP_reversed", {kA, kB},
        {{{Ld, 1, 0}, {Ld, 0, 0}},
         {{St, 0, 1}, {St, 1, 1}}}));

    // --- store buffering ---------------------------------------------
    all.push_back(make("SB_same_page", {kA, kB},
        {{{St, 0, 1}, {Ld, 1, 0}},
         {{St, 1, 1}, {Ld, 0, 0}}}));
    all.push_back(make("SB_cross_page", {kA, kPage1},
        {{{St, 0, 1}, {Ld, 1, 0}},
         {{St, 1, 1}, {Ld, 0, 0}}}));
    all.push_back(make("SB_3thread_ring", {kA, kB, kPage1},
        {{{St, 0, 1}, {Ld, 1, 0}},
         {{St, 1, 1}, {Ld, 2, 0}},
         {{St, 2, 1}, {Ld, 0, 0}}}));

    // --- load buffering ----------------------------------------------
    all.push_back(make("LB_same_page", {kA, kB},
        {{{Ld, 0, 0}, {St, 1, 1}},
         {{Ld, 1, 0}, {St, 0, 1}}}));
    all.push_back(make("LB_cross_page", {kA, kPage1},
        {{{Ld, 0, 0}, {St, 1, 1}},
         {{Ld, 1, 0}, {St, 0, 1}}}));

    // --- coherence of a single location ------------------------------
    all.push_back(make("CoRR", {kA},
        {{{St, 0, 1}},
         {{Ld, 0, 0}, {Ld, 0, 0}}}));
    all.push_back(make("CoRW", {kA},
        {{{St, 0, 1}},
         {{Ld, 0, 0}, {St, 0, 2}}}));
    all.push_back(make("CoWR", {kA},
        {{{St, 0, 1}, {Ld, 0, 0}},
         {{St, 0, 2}}}));
    all.push_back(make("CoWW", {kA},
        {{{St, 0, 1}, {St, 0, 2}},
         {{St, 0, 3}, {St, 0, 4}}}));
    all.push_back(make("CoWR_same_line_neighbors", {kA, kASameLine},
        {{{St, 0, 1}, {Ld, 1, 0}, {Ld, 0, 0}},
         {{St, 1, 2}, {Ld, 0, 0}, {Ld, 1, 0}}}));

    // --- independent reads of independent writes (4 threads) ---------
    all.push_back(make("IRIW", {kA, kPage1},
        {{{St, 0, 1}},
         {{St, 1, 1}},
         {{Ld, 0, 0}, {Ld, 1, 0}},
         {{Ld, 1, 0}, {Ld, 0, 0}}}));
    all.push_back(make("IRIW_same_page", {kA, kB},
        {{{St, 0, 1}},
         {{St, 1, 1}},
         {{Ld, 0, 0}, {Ld, 1, 0}},
         {{Ld, 1, 0}, {Ld, 0, 0}}}));

    // --- write-to-read causality chains ------------------------------
    all.push_back(make("WRC", {kA, kB},
        {{{St, 0, 1}},
         {{Ld, 0, 0}, {St, 1, 1}},
         {{Ld, 1, 0}, {Ld, 0, 0}}}));
    all.push_back(make("RWC", {kA, kPage1},
        {{{St, 0, 1}},
         {{Ld, 0, 0}, {Ld, 1, 0}},
         {{St, 1, 1}, {Ld, 0, 0}}}));
    all.push_back(make("ISA2", {kA, kB, kPage1},
        {{{St, 0, 1}, {St, 1, 1}},
         {{Ld, 1, 0}, {St, 2, 1}},
         {{Ld, 2, 0}, {Ld, 0, 0}}}));

    // --- classic two-writer shapes -----------------------------------
    all.push_back(make("2+2W", {kA, kB},
        {{{St, 0, 1}, {St, 1, 2}},
         {{St, 1, 1}, {St, 0, 2}}}));
    all.push_back(make("S", {kA, kB},
        {{{St, 0, 2}, {St, 1, 1}},
         {{Ld, 1, 0}, {St, 0, 1}}}));
    all.push_back(make("R", {kA, kB},
        {{{St, 0, 1}, {St, 1, 1}},
         {{St, 1, 2}, {Ld, 0, 0}}}));

    // --- contention / ownership ping-pong ----------------------------
    all.push_back(make("single_line_ping_pong", {kA},
        {{{St, 0, 1}, {Ld, 0, 0}, {St, 0, 3}, {Ld, 0, 0}},
         {{St, 0, 2}, {Ld, 0, 0}, {St, 0, 4}, {Ld, 0, 0}}}));
    all.push_back(make("sharer_storm", {kA},
        {{{St, 0, 1}, {St, 0, 2}},
         {{Ld, 0, 0}, {Ld, 0, 0}, {Ld, 0, 0}},
         {{Ld, 0, 0}, {Ld, 0, 0}, {Ld, 0, 0}},
         {{Ld, 0, 0}, {Ld, 0, 0}, {Ld, 0, 0}}}));
    all.push_back(make("false_sharing_writers", {kA, kASameLine},
        {{{St, 0, 1}, {Ld, 1, 0}, {St, 0, 2}, {Ld, 1, 0}},
         {{St, 1, 1}, {Ld, 0, 0}, {St, 1, 2}, {Ld, 0, 0}}}));
    all.push_back(make("multi_page_sweep", {kA, kPage1, kPage2, kPage3},
        {{{St, 0, 1}, {St, 1, 2}, {St, 2, 3}, {St, 3, 4}},
         {{Ld, 3, 0}, {Ld, 2, 0}, {Ld, 1, 0}, {Ld, 0, 0}}}));

    return all;
}

} // namespace

const std::vector<LitmusScenario> &
litmusScenarios()
{
    static const std::vector<LitmusScenario> all = buildScenarios();
    return all;
}

LitmusOutcome
runLitmus(const LitmusScenario &scenario, MultiRack &rack, Addr base,
          std::uint64_t seed, int rounds)
{
    KONA_ASSERT(scenario.threads() >= 1, "scenario with no threads");
    KONA_ASSERT(scenario.threads() <= rack.runtimeCount(),
                "scenario '", scenario.name, "' needs ",
                scenario.threads(), " compute nodes, rack has ",
                rack.runtimeCount());

    LitmusOutcome out;
    auto observe = [&out](std::uint64_t v) {
        // FNV-1a over the bytes of every observed value, in order.
        for (int i = 0; i < 8; ++i) {
            out.valueHash ^= (v >> (8 * i)) & 0xff;
            out.valueHash *= 1099511628211ULL;
        }
    };
    auto check = [&](std::uint64_t got, std::uint64_t want,
                     const char *what, std::size_t thread, int loc) {
        ++out.loadsChecked;
        observe(got);
        if (got != want && out.match) {
            out.match = false;
            out.divergence = scenario.name + ": " + what + " by t" +
                             std::to_string(thread) + " of loc" +
                             std::to_string(loc) + " saw " +
                             std::to_string(got) + ", oracle has " +
                             std::to_string(want);
        }
    };

    // The SC oracle: a flat memory executing the same interleaving.
    std::vector<std::uint64_t> oracle(scenario.locOffsets.size(), 0);

    // Zero the locations through the protocol so the run starts from
    // a known state even when the region carries earlier litmus data.
    for (std::size_t loc = 0; loc < scenario.locOffsets.size(); ++loc) {
        std::uint64_t zero = 0;
        rack.runtime(0).write(base + scenario.locOffsets[loc], &zero,
                              sizeof zero);
    }

    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        std::vector<std::size_t> pc(scenario.threads(), 0);
        std::size_t remaining = 0;
        for (const auto &program : scenario.programs)
            remaining += program.size();

        while (remaining > 0) {
            // Pick uniformly among threads that still have ops.
            std::size_t pick = rng.below(remaining);
            std::size_t thread = 0;
            for (;; ++thread) {
                std::size_t left =
                    scenario.programs[thread].size() - pc[thread];
                if (pick < left)
                    break;
                pick -= left;
            }

            const LitmusOp &op = scenario.programs[thread][pc[thread]++];
            --remaining;
            KonaRuntime &rt = rack.runtime(thread);
            Addr addr = base + scenario.locOffsets[op.loc];
            if (op.store) {
                // Vary values per round so a line gone stale in round
                // r-1 can never masquerade as round r's value.
                std::uint64_t v =
                    op.value + 100 * static_cast<std::uint64_t>(round);
                rt.write(addr, &v, sizeof v);
                oracle[static_cast<std::size_t>(op.loc)] = v;
            } else {
                std::uint64_t got = 0;
                rt.read(addr, &got, sizeof got);
                check(got, oracle[static_cast<std::size_t>(op.loc)],
                      "load", thread, op.loc);
            }
        }

        // Every node reads back every location: the final state must
        // be the oracle's on all replicas of the truth.
        for (std::size_t t = 0; t < scenario.threads(); ++t) {
            for (std::size_t loc = 0; loc < scenario.locOffsets.size();
                 ++loc) {
                std::uint64_t got = 0;
                rack.runtime(t).read(base + scenario.locOffsets[loc],
                                     &got, sizeof got);
                check(got, oracle[loc], "read-back", t,
                      static_cast<int>(loc));
            }
        }
    }
    return out;
}

} // namespace kona
