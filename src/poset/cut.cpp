#include "poset/cut.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace hbct {

std::int64_t Cut::total() const {
  std::int64_t t = 0;
  for (auto v : c_) t += v;
  return t;
}

bool Cut::subset_of(const Cut& o) const {
  HBCT_ASSERT(size() == o.size());
  for (std::size_t i = 0; i < c_.size(); ++i)
    if (c_[i] > o.c_[i]) return false;
  return true;
}

Cut Cut::meet(const Cut& a, const Cut& b) {
  HBCT_ASSERT(a.size() == b.size());
  Cut m(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    m[i] = std::min(a[i], b[i]);
  return m;
}

Cut Cut::join(const Cut& a, const Cut& b) {
  HBCT_ASSERT(a.size() == b.size());
  Cut j(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    j[i] = std::max(a[i], b[i]);
  return j;
}

std::string Cut::to_string() const {
  std::ostringstream os;
  os << "<";
  for (std::size_t i = 0; i < c_.size(); ++i) {
    if (i) os << ",";
    os << c_[i];
  }
  os << ">";
  return os.str();
}

}  // namespace hbct
