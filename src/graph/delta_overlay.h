#ifndef SCHEMEX_GRAPH_DELTA_OVERLAY_H_
#define SCHEMEX_GRAPH_DELTA_OVERLAY_H_

#include "graph/data_graph.h"

namespace schemex::graph {

/// Former name of a DataGraph layered over a FrozenGraph; the perfbench
/// sources still name it. New code says DataGraph.
using DeltaOverlay = DataGraph;

}  // namespace schemex::graph

#endif  // SCHEMEX_GRAPH_DELTA_OVERLAY_H_
