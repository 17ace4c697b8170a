#include "util/csv.hpp"

#include "util/contracts.hpp"

namespace pds {

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  PDS_CHECK(!header.empty(), "CSV needs at least one column");
  write_row(header);
}

template <typename T>
void CsvWriter::write_row(const std::vector<T>& values) {
  PDS_CHECK(!out_.closed(), "CSV writer already closed: " + path());
  PDS_CHECK(values.size() == columns_, "CSV row width mismatch");
  std::ostream& os = out_.stream();
  for (std::size_t c = 0; c < values.size(); ++c) {
    os << values[c] << (c + 1 == values.size() ? "\n" : ",");
  }
}

void CsvWriter::add_row(const std::vector<double>& values) {
  write_row(values);
}

void CsvWriter::add_row(const std::vector<std::string>& values) {
  write_row(values);
}

}  // namespace pds
