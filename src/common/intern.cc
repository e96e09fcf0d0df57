#include "common/intern.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/check.h"

namespace ecoscale {

namespace {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

struct Registry {
  std::mutex mu;
  // deque: references into it survive growth, so name() can hand out
  // stable references without copying.
  std::deque<std::string> names;
  std::unordered_map<std::string_view, CounterId, StringHash,
                     std::equal_to<>>
      ids;  // keys view into `names`
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: ids outlive static dtors
  return *r;
}

}  // namespace

CounterId CounterRegistry::intern(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (auto it = r.ids.find(name); it != r.ids.end()) return it->second;
  const auto id = static_cast<CounterId>(r.names.size());
  r.names.emplace_back(name);
  r.ids.emplace(std::string_view(r.names.back()), id);
  return id;
}

const std::string& CounterRegistry::name(CounterId id) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  ECO_CHECK_MSG(id < r.names.size(), "unknown CounterId");
  return r.names[id];
}

}  // namespace ecoscale
