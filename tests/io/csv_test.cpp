#include "bbb/io/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace bbb::io {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  // One file per test: ctest -j runs the cases as concurrent processes.
  std::string path_ =
      ::testing::TempDir() + "bbb_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
};

TEST_F(CsvWriterTest, HeaderAndRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.write_row(std::vector<std::string>{"1", "x"});
    w.write_row(std::vector<double>{2.5, 3.0});
    EXPECT_EQ(w.rows(), 2u);
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,x\n2.5,3\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCharacters) {
  {
    CsvWriter w(path_, {"c"});
    w.write_row(std::vector<std::string>{"with,comma"});
  }
  EXPECT_EQ(slurp(path_), "c\n\"with,comma\"\n");
}

TEST_F(CsvWriterTest, WidthMismatchThrows) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW((void)w.write_row(std::vector<std::string>{"only"}),
               std::invalid_argument);
}

TEST_F(CsvWriterTest, EmptyHeaderThrows) {
  EXPECT_THROW(CsvWriter(path_, {}), std::invalid_argument);
}

TEST(CsvWriter, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}), std::runtime_error);
}

}  // namespace
}  // namespace bbb::io
