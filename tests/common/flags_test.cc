#include "src/common/flags.h"

#include <gtest/gtest.h>

namespace rc4b {
namespace {

TEST(FlagsTest, DefaultsUsedWhenNotPassed) {
  FlagSet flags("test");
  flags.Define("keys", "1024", "number of keys");
  char prog[] = "prog";
  char* argv[] = {prog};
  ASSERT_TRUE(flags.Parse(1, argv));
  EXPECT_EQ(flags.GetInt("keys"), 1024);
}

TEST(FlagsTest, EqualsForm) {
  FlagSet flags("test");
  flags.Define("keys", "0", "");
  char prog[] = "prog";
  char arg[] = "--keys=4096";
  char* argv[] = {prog, arg};
  ASSERT_TRUE(flags.Parse(2, argv));
  EXPECT_EQ(flags.GetUint("keys"), 4096u);
}

TEST(FlagsTest, SpaceForm) {
  FlagSet flags("test");
  flags.Define("name", "", "");
  char prog[] = "prog";
  char a1[] = "--name";
  char a2[] = "hello";
  char* argv[] = {prog, a1, a2};
  ASSERT_TRUE(flags.Parse(3, argv));
  EXPECT_EQ(flags.GetString("name"), "hello");
}

TEST(FlagsTest, HexIntegerParsed) {
  FlagSet flags("test");
  flags.Define("mask", "0xff", "");
  char prog[] = "prog";
  char* argv[] = {prog};
  ASSERT_TRUE(flags.Parse(1, argv));
  EXPECT_EQ(flags.GetInt("mask"), 255);
}

TEST(FlagsTest, DoubleAndBool) {
  FlagSet flags("test");
  flags.Define("rate", "0.5", "").Define("verbose", "false", "");
  char prog[] = "prog";
  char a1[] = "--rate=0.25";
  char a2[] = "--verbose=true";
  char* argv[] = {prog, a1, a2};
  ASSERT_TRUE(flags.Parse(3, argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, HelpReturnsFalse) {
  FlagSet flags("test");
  char prog[] = "prog";
  char a1[] = "--help";
  char* argv[] = {prog, a1};
  EXPECT_FALSE(flags.Parse(2, argv));
}

// A flag set holding one flag, "value", set to `text`.
FlagSet WithValue(const std::string& text) {
  FlagSet flags("test");
  flags.Define("value", text, "");
  return flags;
}

TEST(FlagsTest, ValidValuesParse) {
  EXPECT_EQ(WithValue("0x80000").GetUint("value"), 0x80000u);
  EXPECT_EQ(WithValue("18446744073709551615").GetUint("value"), UINT64_MAX);
  EXPECT_EQ(WithValue("-7").GetInt("value"), -7);
  EXPECT_EQ(WithValue("-0x10").GetInt("value"), -16);
  EXPECT_DOUBLE_EQ(WithValue("-1.5e3").GetDouble("value"), -1500.0);
  EXPECT_DOUBLE_EQ(WithValue(".25").GetDouble("value"), 0.25);
  EXPECT_TRUE(WithValue("on").GetBool("value"));
  EXPECT_FALSE(WithValue("0").GetBool("value"));
  EXPECT_FALSE(WithValue("no").GetBool("value"));
}

TEST(FlagsDeathTest, GarbageUnsignedExits2) {
  for (const char* bad : {"abc", "", "12abc", "-1", "+1", "0x", "1.5",
                          "18446744073709551616"}) {
    EXPECT_EXIT(WithValue(bad).GetUint("value"), ::testing::ExitedWithCode(2),
                "flag --value: expected an unsigned integer")
        << bad;
  }
}

TEST(FlagsDeathTest, GarbageSignedExits2) {
  for (const char* bad : {"abc", "", "7x", "9223372036854775808"}) {
    EXPECT_EXIT(WithValue(bad).GetInt("value"), ::testing::ExitedWithCode(2),
                "flag --value: expected an integer")
        << bad;
  }
}

TEST(FlagsDeathTest, GarbageDoubleExits2) {
  for (const char* bad : {"abc", "", "0.5x", "1e999"}) {
    EXPECT_EXIT(WithValue(bad).GetDouble("value"), ::testing::ExitedWithCode(2),
                "flag --value: expected a number")
        << bad;
  }
}

TEST(FlagsDeathTest, UnknownBoolExits2) {
  for (const char* bad : {"ture", "", "False", "2"}) {
    EXPECT_EXIT(WithValue(bad).GetBool("value"), ::testing::ExitedWithCode(2),
                "flag --value: expected true/false")
        << bad;
  }
}

TEST(FlagsDeathTest, WorkersMinusOneExits2AfterParse) {
  // The reported failure: --workers -1 used to become 4294967295 threads.
  FlagSet flags("test");
  flags.Define("workers", "0", "");
  char prog[] = "prog";
  char a1[] = "--workers";
  char a2[] = "-1";
  char* argv[] = {prog, a1, a2};
  ASSERT_TRUE(flags.Parse(3, argv));
  EXPECT_EXIT(flags.GetUint("workers"), ::testing::ExitedWithCode(2),
              "flag --workers");
}

}  // namespace
}  // namespace rc4b
