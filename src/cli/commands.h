// The pghive command-line interface, as a testable library.
//
// Subcommands (see HelpText() for flags):
//   discover       CSV graph -> discovered schema (summary/PG-Schema/XSD);
//                  --state-dir makes the incremental run durable;
//                  --deletions retracts a deletion file's elements after
//                  discovery, through the engine's mutation path
//   resume         continue a durable run after a stop or crash
//   inspect-state  report snapshots/journal of a state directory
//   drift          report the schema-drift history of a state directory
//   generate       synthetic benchmark dataset -> CSV graph (+noise)
//   stats          Table-2-style statistics of a CSV graph
//   validate       validate one CSV graph against the schema of another
//   diff           schema drift between two CSV graphs
//   datasets       list the built-in benchmark dataset specs
//   serve          long-lived multi-graph schema-serving HTTP daemon
//   ingest         HTTP client: stream a CSV graph into a serving daemon
//
// Each command writes human-readable output to `out` and returns a Status;
// main() maps that to exit codes. Graphs are read/written in the
// graph/csv_io.h dialect (<prefix>.nodes.csv / <prefix>.edges.csv).

#ifndef PGHIVE_CLI_COMMANDS_H_
#define PGHIVE_CLI_COMMANDS_H_

#include <ostream>
#include <string>

#include "cli/args.h"
#include "common/status.h"

namespace pghive {

/// Top-level dispatch: args.positional()[0] selects the subcommand.
/// Returns InvalidArgument with usage info for unknown commands/flags.
Status RunCliCommand(const Args& args, std::ostream& out);

/// Full usage text.
std::string HelpText();

// Individual commands (exposed for unit tests).
Status CmdDiscover(const Args& args, std::ostream& out);
Status CmdResume(const Args& args, std::ostream& out);
Status CmdInspectState(const Args& args, std::ostream& out);
Status CmdDrift(const Args& args, std::ostream& out);
Status CmdGenerate(const Args& args, std::ostream& out);
Status CmdStats(const Args& args, std::ostream& out);
Status CmdValidate(const Args& args, std::ostream& out);
Status CmdDiff(const Args& args, std::ostream& out);
Status CmdDatasets(const Args& args, std::ostream& out);
Status CmdServe(const Args& args, std::ostream& out);
Status CmdIngest(const Args& args, std::ostream& out);

}  // namespace pghive

#endif  // PGHIVE_CLI_COMMANDS_H_
