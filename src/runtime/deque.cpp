#include "runtime/deque.h"

namespace hls::rt {

// Instantiate the full shipping deque here so template breakage is caught
// when this library builds, not first in a downstream target. (The class
// itself is header-only; see runtime/deque_core.h for the protocol.)
template class ws_deque_core<task*, sync::real_traits>;

}  // namespace hls::rt
