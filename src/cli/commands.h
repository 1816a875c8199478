// The sparsedet CLI subcommands, as testable functions.
//
//   sparsedet analyze  [scenario flags]          analytical report
//   sparsedet simulate [scenario flags] [--trials --motion --geometry ...]
//   sparsedet plan     [scenario flags] [--target-detection --max-fa ...]
//   sparsedet fa       [scenario flags] [--pf --trials ...]
//   sparsedet sweep    [scenario flags] --param <name> --from --to --step
//   sparsedet latency  [scenario flags]          first-passage table
//   sparsedet trace    [scenario flags] --prefix <path>  export one trial
//   sparsedet batch    --input <file|-> [--threads --passes --unordered
//                       --trace --trace-file ...]
//   sparsedet optimize --spec <file> | [--objective --mode --search-* ...]
//                       inverse deployment search (docs/OPTIMIZER.md)
//   sparsedet adapt    --spec <file> | [--mode --failure-model --search-*
//                       --min-detection ...]   self-healing k/M retune loop
//   sparsedet serve    [--threads --cache-capacity --trace ...]  JSONL loop
//   sparsedet serve-tcp [serve flags --host --port --max-connections
//                       --tenant-qps --tenant-burst --idle-timeout-ms]
//                                                  concurrent TCP server
//   sparsedet metrics-dump --input <file|-> [--format table|prometheus|json]
//
// Each command returns a process exit code and writes to `out` / `err`, so
// tests can drive them directly.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace sparsedet::cli {

// Dispatches argv (argv[1] is the subcommand). Returns the exit code.
int Run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err);

// Individual commands; `args` excludes the program and command names.
int CmdAnalyze(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
int CmdSimulate(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
int CmdPlan(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);
int CmdFa(const std::vector<std::string>& args, std::ostream& out,
          std::ostream& err);
int CmdSweep(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
int CmdLatency(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
int CmdTrace(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
// `batch` reads JSONL requests from --input (default "-": `in`, normally
// stdin) and exits when drained; `serve` loops over `in` line-by-line with
// per-request error isolation. Both write one JSON line per request.
int CmdBatch(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err);
// `optimize` runs the inverse-deployment search (src/opt/): a constrained
// sweep-and-refine over (N, k, M, t, duty) with the batch engine as its
// inner-solve backend. The spec comes from --spec <file> or from
// spec-building flags; output is one JSON result line (frontier mode: one
// line per frontier point plus a summary). Exit 1 = the search completed
// and nothing was feasible; a deadline partial still exits 0, tagged
// "degraded": true.
int CmdOptimize(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
// `adapt` runs the self-healing loop (src/adapt/): per epoch it thins the
// fleet by the configured failure model, (optionally) re-estimates the live
// population from quiescent report counts, and retunes (k, M) over the
// search axes to the cheapest setting holding --min-detection under the FA
// cap. Output is one JSON line per epoch plus a summary. Exit 1 = the loop
// ran to completion and some epoch had no feasible setting; a deadline
// partial still exits 0, tagged "degraded": true.
int CmdAdapt(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
int CmdServe(const std::vector<std::string>& args, std::istream& in,
             std::ostream& out, std::ostream& err);
// `serve-tcp` runs the epoll TCP front-end (src/server/) until SIGTERM or
// SIGINT triggers a graceful drain; prints a {"listening":...} line with
// the bound port first, and a final {"stats":...} line after drain.
int CmdServeTcp(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
// `metrics-dump` re-renders a metrics snapshot (a saved {"cmd":"stats"}
// response, or any line of piped serve output carrying a "metrics" object)
// as a table, Prometheus text exposition, or normalized JSON.
int CmdMetricsDump(const std::vector<std::string>& args, std::istream& in,
                   std::ostream& out, std::ostream& err);

// Full usage text.
std::string Usage();

}  // namespace sparsedet::cli
