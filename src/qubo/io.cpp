#include "qubo/io.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace absq {
namespace {

// Entry fields are read the way `istream >> long long` reads them in the
// classic locale, without an istringstream per line (whose construction
// dominated parsing small instances, e.g. every inline job submit).

const char* skip_space(const char* at, const char* end) {
  while (at != end && std::isspace(static_cast<unsigned char>(*at)) != 0) {
    ++at;
  }
  return at;
}

/// Leading whitespace, an optional sign, decimal digits; false when no
/// in-range integer starts there. Advances `at` past the integer.
bool next_int(const char*& at, const char* end, long long& out) {
  const char* first = skip_space(at, end);
  if (first != end && *first == '+') {
    ++first;
    if (first == end || std::isdigit(static_cast<unsigned char>(*first)) == 0) {
      return false;
    }
  }
  const auto [ptr, error] = std::from_chars(first, end, out);
  if (error != std::errc()) return false;
  at = ptr;
  return true;
}

}  // namespace

void write_qubo(std::ostream& out, const WeightMatrix& w,
                const std::string& comment) {
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << '\n';
  }
  out << "qubo " << w.size() << '\n';
  for (BitIndex i = 0; i < w.size(); ++i) {
    for (BitIndex j = i; j < w.size(); ++j) {
      if (const Weight v = w.at(i, j); v != 0) {
        out << i << ' ' << j << ' ' << v << '\n';
      }
    }
  }
}

void write_qubo_file(const std::string& path, const WeightMatrix& w,
                     const std::string& comment) {
  std::ofstream out(path);
  ABSQ_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_qubo(out, w, comment);
  ABSQ_CHECK(out.good(), "write to '" << path << "' failed");
}

WeightMatrix read_qubo(std::istream& in) {
  std::string line;
  int line_no = 0;
  BitIndex n = 0;
  bool have_header = false;

  // Header: first non-comment, non-blank line must be "qubo <n>".
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    long long size = 0;
    ABSQ_CHECK(fields >> tag >> size && tag == "qubo",
               "line " << line_no << ": expected 'qubo <n>' header");
    ABSQ_CHECK(size >= 1 && size <= static_cast<long long>(kMaxBits),
               "line " << line_no << ": size " << size << " out of range");
    n = static_cast<BitIndex>(size);
    have_header = true;
    break;
  }
  ABSQ_CHECK(have_header, "missing 'qubo <n>' header");

  // Entries are written straight into the dense matrix. A file entry is
  // the symmetric W_ij itself, so no coefficient splitting or rescaling
  // applies (a builder would receive 2·W_ij and halve it back).
  WeightMatrix w(n);
  // Duplicate check: one bit per upper-triangle position (i, j), i <= j,
  // row by row — row i starts at bit i·n − i(i−1)/2.
  const std::size_t positions = static_cast<std::size_t>(n) * (n + 1) / 2;
  std::vector<std::uint64_t> seen((positions + 63) / 64, 0);
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const char* at = line.data();
    const char* const end = at + line.size();
    long long i = 0;
    long long j = 0;
    long long v = 0;
    ABSQ_CHECK(next_int(at, end, i) && next_int(at, end, j) &&
                   next_int(at, end, v),
               "line " << line_no << ": expected '<i> <j> <w>'");
    ABSQ_CHECK(skip_space(at, end) == end,
               "line " << line_no << ": trailing tokens after entry");
    ABSQ_CHECK(i >= 0 && j >= 0 && i < n && j < n,
               "line " << line_no << ": index out of range for n=" << n);
    ABSQ_CHECK(i <= j, "line " << line_no
                               << ": entries must be upper-triangle (i <= j)");
    ABSQ_CHECK(v >= kMinWeight && v <= kMaxWeight,
               "line " << line_no << ": weight " << v << " outside 16-bit");
    const auto bi = static_cast<BitIndex>(i);
    const auto bj = static_cast<BitIndex>(j);
    const std::size_t slot =
        static_cast<std::size_t>(bi) * (2 * std::size_t{n} - bi + 1) / 2 +
        (bj - bi);
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    ABSQ_CHECK((seen[slot / 64] & bit) == 0,
               "line " << line_no << ": duplicate entry (" << i << ", " << j
                       << ")");
    seen[slot / 64] |= bit;
    w.set_symmetric(bi, bj, static_cast<Weight>(v));
  }
  return w;
}

WeightMatrix read_qubo_file(const std::string& path) {
  std::ifstream in(path);
  ABSQ_CHECK(in.good(), "cannot open '" << path << "' for reading");
  return read_qubo(in);
}

void write_solution(std::ostream& out, const BitVector& bits, Energy energy) {
  out << "solution " << bits.size() << ' ' << energy << '\n'
      << bits.to_string() << '\n';
}

void write_solution_file(const std::string& path, const BitVector& bits,
                         Energy energy) {
  std::ofstream out(path);
  ABSQ_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_solution(out, bits, energy);
  ABSQ_CHECK(out.good(), "write to '" << path << "' failed");
}

StoredSolution read_solution(std::istream& in) {
  std::string tag;
  long long size = 0;
  Energy energy = 0;
  ABSQ_CHECK(in >> tag >> size >> energy && tag == "solution",
             "expected 'solution <n> <energy>' header");
  ABSQ_CHECK(size >= 1 && size <= static_cast<long long>(kMaxBits),
             "solution size " << size << " out of range");
  std::string bits;
  ABSQ_CHECK(static_cast<bool>(in >> bits), "missing solution bit string");
  ABSQ_CHECK(bits.size() == static_cast<std::size_t>(size),
             "bit string has " << bits.size() << " characters, header says "
                               << size);
  return StoredSolution{BitVector::from_string(bits), energy};
}

StoredSolution read_solution_file(const std::string& path) {
  std::ifstream in(path);
  ABSQ_CHECK(in.good(), "cannot open '" << path << "' for reading");
  return read_solution(in);
}

}  // namespace absq
