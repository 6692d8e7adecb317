#include "bbb/io/argparse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace bbb::io {
namespace {

ArgParser sample_parser() {
  ArgParser p("prog", "test parser");
  p.add_flag("n", std::uint64_t{100}, "bins");
  p.add_flag("rate", 0.5, "a rate");
  p.add_flag("format", std::string("ascii"), "output format");
  return p;
}

TEST(ArgParser, DefaultsWhenNoArgs) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_u64("n"), 100u);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_EQ(p.get_string("format"), "ascii");
}

TEST(ArgParser, EqualsForm) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n=42", "--rate=1.25", "--format=csv"};
  EXPECT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_u64("n"), 42u);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.25);
  EXPECT_EQ(p.get_string("format"), "csv");
}

TEST(ArgParser, SpaceForm) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n", "7"};
  EXPECT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_u64("n"), 7u);
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpTextListsFlags) {
  const std::string help = sample_parser().help();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("--rate"), std::string::npos);
  EXPECT_NE(help.find("default: 100"), std::string::npos);
}

TEST(ArgParser, UnknownFlagThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, MalformedValuesThrow) {
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--n=abc"};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
  }
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--n=12junk"};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
  }
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--rate=..5"};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
  }
}

TEST(ArgParser, IntegerFlagsRejectSignsAndWhitespace) {
  // std::stoull reads "-1" as 2^64 - 1 (bbb_sim --n=-1 then died with
  // bad_alloc) and skips leading whitespace; integer flags are digits only.
  for (const char* bad :
       {"--n=-1", "--n=+5", "--n= 7", "--n=", "--n=18446744073709551616"}) {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", bad};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument) << bad;
  }
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n=18446744073709551615"};
  EXPECT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.get_u64("n"), 18446744073709551615ULL);
}

TEST(ArgParser, GetU32RangeChecksBeforeNarrowing) {
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--n=4294967295"};
    EXPECT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.get_u32("n"), 4294967295U);
  }
  // bbb_sim --n=4294967296 used to narrow to 0 ("n must be positive") and
  // --reps=4294967297 to 1 replicate; now the error names the flag.
  for (const char* big : {"--n=4294967296", "--n=4294967297"}) {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", big};
    EXPECT_TRUE(p.parse(2, argv));
    try {
      (void)p.get_u32("n");
      ADD_FAILURE() << big << " narrowed silently";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
    }
  }
  ArgParser p = sample_parser();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_u32("format"), std::invalid_argument);
}

TEST(ArgParser, MissingValueThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, NonFlagArgumentThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, TypeMismatchThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_u64("format"), std::invalid_argument);
  EXPECT_THROW((void)p.get_string("n"), std::invalid_argument);
  // get_double on an integer flag is allowed (widening).
  EXPECT_DOUBLE_EQ(p.get_double("n"), 100.0);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser p("prog", "dup");
  p.add_flag("x", std::uint64_t{1}, "first");
  EXPECT_THROW(p.add_flag("x", 2.0, "second"), std::invalid_argument);
}

}  // namespace
}  // namespace bbb::io
