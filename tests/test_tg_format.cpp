#include <gtest/gtest.h>

#include "io/tg_format.hpp"
#include "support/error.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/ewf.hpp"

namespace sparcs::io {
namespace {

constexpr const char* kSample = R"(# demo graph
graph demo
device board 200 64 50

task a 8 0
point a fast 90 120
point a small 50 260
task b 0 4
point b only 60 150

edge a b 8
)";

TEST(TgFormatTest, ParsesSample) {
  const TaskGraphFile file = read_task_graph_string(kSample);
  EXPECT_EQ(file.graph.name(), "demo");
  EXPECT_EQ(file.graph.num_tasks(), 2);
  EXPECT_EQ(file.graph.num_edges(), 1);
  ASSERT_TRUE(file.device.has_value());
  EXPECT_DOUBLE_EQ(file.device->resource_capacity, 200);
  EXPECT_DOUBLE_EQ(file.device->reconfig_time_ns, 50);
  const graph::Task& a = file.graph.task(file.graph.find_task("a"));
  ASSERT_EQ(a.design_points.size(), 2u);
  EXPECT_DOUBLE_EQ(a.design_points[1].latency_ns, 260);
  EXPECT_DOUBLE_EQ(a.env_in, 8);
}

TEST(TgFormatTest, RoundTripsArFilter) {
  const graph::TaskGraph original = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("d", 200, 64, 50);
  const std::string text = to_task_graph_string(original, &dev);
  const TaskGraphFile parsed = read_task_graph_string(text);
  EXPECT_EQ(parsed.graph.num_tasks(), original.num_tasks());
  EXPECT_EQ(parsed.graph.num_edges(), original.num_edges());
  ASSERT_TRUE(parsed.device.has_value());
  for (graph::TaskId t = 0; t < original.num_tasks(); ++t) {
    const graph::Task& lhs = original.task(t);
    const graph::Task& rhs = parsed.graph.task(parsed.graph.find_task(lhs.name));
    EXPECT_EQ(lhs.design_points, rhs.design_points) << lhs.name;
    EXPECT_DOUBLE_EQ(lhs.env_in, rhs.env_in);
    EXPECT_DOUBLE_EQ(lhs.env_out, rhs.env_out);
  }
}

TEST(TgFormatTest, ErrorsNameTheLine) {
  try {
    read_task_graph_string("graph g\nbogus directive\n");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // The message is the bare line error, with no precondition-failure prefix
  // naming an expression and a source location.
  try {
    read_task_graph_string("x");
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(std::string(e.what()), "line 1: unknown directive 'x'");
  }
}

TEST(TgFormatTest, RejectsUnknownTaskReferences) {
  EXPECT_THROW(read_task_graph_string("graph g\ntask a\npoint a m 1 1\n"
                                      "edge a zz 1\n"),
               InvalidArgumentError);
  EXPECT_THROW(read_task_graph_string("graph g\npoint nosuch m 1 1\n"),
               InvalidArgumentError);
}

TEST(TgFormatTest, RejectsDuplicatesAndBadNumbers) {
  EXPECT_THROW(read_task_graph_string("task a\ntask a\n"),
               InvalidArgumentError);
  EXPECT_THROW(read_task_graph_string("task a xyz\n"), InvalidArgumentError);
  EXPECT_THROW(
      read_task_graph_string("device d 1 1 1\ndevice d 1 1 1\ntask a\n"),
      InvalidArgumentError);
}

TEST(TgFormatTest, RejectsCorruptNumericFields) {
  // Truncated or bit-flipped files must produce a classified error naming
  // the offending line, never a silent misparse into nonsense quantities.
  struct Case {
    const char* label;
    const char* text;
    const char* line_tag;
  };
  const Case cases[] = {
      {"nan latency", "task a\npoint a m 10 nan\n", "line 2"},
      {"inf area", "task a\npoint a m inf 10\n", "line 2"},
      {"overflow to inf", "task a\npoint a m 1e999 10\n", "line 2"},
      {"negative area", "task a\npoint a m -5 10\n", "line 2"},
      {"negative latency", "task a\npoint a m 10 -1\n", "line 2"},
      {"negative env", "task a -3\n", "line 1"},
      {"negative device param", "device d 200 -64 50\ntask a\n", "line 1"},
      {"zero device Rmax", "device d 0 64 50\ntask a\n", "line 1"},
      {"negative edge units",
       "task a\npoint a m 1 1\ntask b\npoint b m 1 1\nedge a b -2\n",
       "line 5"},
      {"truncated device line", "device d 200 64\n", "line 1"},
      {"truncated point line", "task a\npoint a m 10\n", "line 2"},
      {"number with trailing junk", "task a 1.5x\n", "line 1"},
  };
  for (const Case& c : cases) {
    try {
      read_task_graph_string(c.text);
      FAIL() << c.label << ": expected InvalidArgumentError";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(c.line_tag), std::string::npos)
          << c.label << ": " << e.what();
      EXPECT_EQ(std::string(e.what()).rfind(std::string(c.line_tag) + ":", 0),
                0u)
          << c.label << ": " << e.what();
    }
  }
}

TEST(TgFormatTest, GraphValidationStillApplies) {
  // A cyclic file parses structurally but fails validation.
  EXPECT_THROW(read_task_graph_string(R"(graph g
task a
point a m 10 10
task b
point b m 10 10
edge a b 1
edge b a 1
)"),
               InvalidArgumentError);
}

TEST(TgFormatTest, GraphValidationErrorsAreBareMessages) {
  // A file that parses line by line but fails graph validation reports the
  // bare reason, with no precondition-failure prefix naming an expression
  // and a source location.
  struct Case {
    const char* text;
    const char* message;
  };
  const Case cases[] = {
      {"task a\n", "task a has no design points"},
      {"task a\npoint a m 10 10\ntask b\npoint b m 10 10\n"
       "edge a b 1\nedge b a 1\n",
       "task graph contains a cycle"},
  };
  for (const Case& c : cases) {
    try {
      read_task_graph_string(c.text);
      FAIL() << c.message << ": expected InvalidArgumentError";
    } catch (const InvalidArgumentError& e) {
      EXPECT_EQ(std::string(e.what()), c.message);
    }
  }
}

TEST(TgFormatTest, EwfRoundTrip) {
  const graph::TaskGraph original = workloads::ewf_task_graph();
  const TaskGraphFile parsed =
      read_task_graph_string(to_task_graph_string(original));
  EXPECT_EQ(parsed.graph.num_tasks(), 5);
  EXPECT_EQ(parsed.graph.num_edges(), original.num_edges());
  EXPECT_FALSE(parsed.device.has_value());
}

}  // namespace
}  // namespace sparcs::io
