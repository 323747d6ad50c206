// Umbrella header: the full public API of the FASTOD library.
//
// Quickstart — every discovery engine ("fastod", "tane", "order",
// "brute-force", "approximate", "conditional") is reachable by name
// through the unified Algorithm API:
//
//   #include "fastod/fastod.h"
//
//   auto dataset = fastod::LoadedDataset::LoadCsvFile(   // CSV -> codes
//       "data", "data.csv", fastod::CsvOptions());      // + level 1
//   auto algo = fastod::AlgorithmRegistry::Default().Create("fastod");
//   (*algo)->SetOption("threads", "4");     // typed, introspectable
//   (*algo)->BindDataset(*std::move(dataset));
//   (*algo)->Execute();
//   std::cout << (*algo)->ResultText();
//
// Configuration is discoverable at runtime ((*algo)->DescribeOptions()),
// output can stream through an OdSink instead of materializing, and runs
// are cancellable via ExecutionControl. The engines' direct entry points
// (fastod::Fastod etc., below) remain available for typed access to
// results and options structs.
//
// See README.md for the architecture overview and examples/ for complete
// programs.
#ifndef FASTOD_FASTOD_FASTOD_H_
#define FASTOD_FASTOD_FASTOD_H_

#include "algo/approximate.h"
#include "algo/brute_force_discovery.h"
#include "algo/conditional.h"
#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "api/algorithm.h"
#include "api/engines.h"
#include "api/od_sink.h"
#include "api/option.h"
#include "api/registry.h"
#include "axioms/inference.h"
#include "common/cancellation.h"
#include "common/status.h"
#include "data/csv.h"
#include "data/encode.h"
#include "data/table.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "od/attribute_set.h"
#include "od/bidirectional.h"
#include "od/canonical_od.h"
#include "od/knowledge.h"
#include "od/list_od.h"
#include "od/mapping.h"
#include "validate/brute_force.h"
#include "validate/od_validator.h"
#include "validate/violation_scanner.h"

#endif  // FASTOD_FASTOD_FASTOD_H_
