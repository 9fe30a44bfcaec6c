// Self-test of the benchmark's answer oracle: every check must accept the
// right answer (in any order the query leaves open) and reject each kind
// of wrong answer the benchmark guards against. Exits non-zero on the
// first case that does not behave. Run: .bench_build/oracle_test

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"

namespace {

using graphbench::snb::Dataset;
using graphbench::snb::UpdateOp;
using perfbench::NameRow;
using perfbench::Oracle;
using perfbench::PosterRow;
using perfbench::PostRow;
using perfbench::ReplyRow;

int failures = 0;

void Expect(bool accepted, const std::string& verdict, const char* name) {
  bool ok = accepted ? verdict.empty() : !verdict.empty();
  std::printf("%-4s %s%s%s\n", ok ? "ok" : "FAIL", name,
              verdict.empty() ? "" : "  -> ", verdict.c_str());
  if (!ok) ++failures;
}

// A path 1-2-3-4 plus 1-5, an isolated person 6; posts by 1 and 2 with a
// date tie; comment replies to post 100.
Dataset TinyDataset() {
  Dataset d;
  const char* names[] = {"Ann", "Bob", "Ann", "Cid", "Dee", "Eve"};
  for (int64_t id = 1; id <= 6; ++id) {
    graphbench::snb::Person p;
    p.id = id;
    p.first_name = names[id - 1];
    p.last_name = "L" + std::to_string(id);
    d.persons.push_back(p);
  }
  for (auto [a, b] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 2}, {2, 3}, {3, 4}, {1, 5}}) {
    d.knows.push_back({a, b, 0});
  }
  auto post = [&](int64_t id, int64_t creator, int64_t date) {
    graphbench::snb::Post p;
    p.id = id;
    p.creator = creator;
    p.creation_date = date;
    d.posts.push_back(p);
  };
  post(100, 1, 10);
  post(101, 1, 30);
  post(102, 1, 30);  // ties with 101
  post(103, 2, 20);
  auto comment = [&](int64_t id, int64_t creator, int64_t date) {
    graphbench::snb::Comment c;
    c.id = id;
    c.creator = creator;
    c.creation_date = date;
    c.reply_of_post = 100;
    d.comments.push_back(c);
  };
  comment(200, 2, 40);
  comment(201, 3, 50);
  return d;
}

}  // namespace

int main() {
  const Dataset data = TinyDataset();
  const Oracle oracle(data);

  Expect(true, oracle.CheckPointLookup(3, {{"Ann", "L3"}}), "point lookup");
  Expect(false, oracle.CheckPointLookup(3, {{"Ann", "L1"}}),
         "point lookup with another person's name");
  Expect(true, oracle.CheckPointLookup(99, {}), "point lookup of nobody");

  Expect(true, oracle.CheckOneHop(1, {5, 2}), "one hop in any order");
  Expect(false, oracle.CheckOneHop(1, {2}), "one hop with a dropped friend");
  Expect(false, oracle.CheckOneHop(1, {2, 5, 5}), "one hop with a duplicate");

  Expect(true, oracle.CheckTwoHop(2, {5, 4}), "two hop");
  Expect(false, oracle.CheckTwoHop(2, {5, 4, 2}), "two hop including self");

  Expect(true, oracle.CheckShortestPath(5, 4, 4), "shortest path");
  Expect(false, oracle.CheckShortestPath(5, 4, 3),
         "shortest path off by one");
  Expect(true, oracle.CheckShortestPath(1, 6, -1), "unreachable path");

  Expect(true, oracle.CheckRecentPosts(1, 2, {{101, 30}, {102, 30}}),
         "recent posts");
  Expect(true, oracle.CheckRecentPosts(1, 2, {{102, 30}, {101, 30}}),
         "recent posts with the tie in the other order");
  Expect(false, oracle.CheckRecentPosts(1, 2, {{101, 30}, {103, 20}}),
         "recent posts with another creator's post");
  Expect(false, oracle.CheckRecentPosts(1, 2, {{101, 30}, {100, 10}}),
         "recent posts skipping a newer post");
  Expect(false, oracle.CheckRecentPosts(1, 3, {{101, 30}, {102, 30}}),
         "recent posts cut short");

  Expect(true, oracle.CheckFriendsWithName(2, "Ann", {3, 1}),
         "friends with name");
  Expect(false, oracle.CheckFriendsWithName(2, "Ann", {1, 3, 4}),
         "friends with name including a non-match");

  Expect(true, oracle.CheckRepliesOfPost(100, {{201, 3}, {200, 2}}),
         "replies newest first");
  Expect(false, oracle.CheckRepliesOfPost(100, {{200, 2}, {201, 3}}),
         "replies oldest first");
  Expect(false, oracle.CheckRepliesOfPost(100, {{201, 2}, {200, 2}}),
         "replies with a wrong creator");
  Expect(false, oracle.CheckRepliesOfPost(100, {{201, 3}}),
         "replies missing one");

  Expect(true, oracle.CheckTopPosters(2, {{1, 3}, {2, 1}}), "top posters");
  Expect(false, oracle.CheckTopPosters(2, {{2, 1}, {1, 3}}),
         "top posters with a wrong rank");
  Expect(false, oracle.CheckTopPosters(2, {{1, 3}, {2, 2}}),
         "top posters with a wrong count");

  // The stream adds person 7, befriends 4-6 and 6-7, and a post by 6.
  Oracle after(data);
  UpdateOp add_person;
  add_person.kind = UpdateOp::Kind::kAddPerson;
  add_person.person.id = 7;
  add_person.person.first_name = "Gus";
  after.Apply(add_person);
  for (auto [a, b] : std::vector<std::pair<int64_t, int64_t>>{{4, 6},
                                                              {6, 7}}) {
    UpdateOp knows;
    knows.kind = UpdateOp::Kind::kAddFriendship;
    knows.knows = {a, b, 0};
    after.Apply(knows);
  }
  UpdateOp add_post;
  add_post.kind = UpdateOp::Kind::kAddPost;
  add_post.post.id = 104;
  add_post.post.creator = 6;
  add_post.post.creation_date = 60;
  after.Apply(add_post);

  Expect(true, after.CheckShortestPath(1, 7, 5), "path through the stream");
  Expect(true, after.CheckOneHop(4, {3, 6}), "one hop after the stream");
  Expect(true, Oracle::CheckOneHopDuring(oracle, after, 4, {3}),
         "one hop before the stream's friendship lands");
  Expect(true, Oracle::CheckOneHopDuring(oracle, after, 4, {6, 3}),
         "one hop after the stream's friendship lands");
  Expect(false, Oracle::CheckOneHopDuring(oracle, after, 4, {6}),
         "one hop during the stream dropping a snapshot friend");
  Expect(false, Oracle::CheckOneHopDuring(oracle, after, 4, {3, 1}),
         "one hop during the stream with a friend nobody added");
  Expect(false, Oracle::CheckOneHopDuring(oracle, after, 4, {3, 3}),
         "one hop during the stream with a duplicate");
  Expect(true, Oracle::CheckTwoHopDuring(after, 3, {1, 6}),
         "two hop during the stream");
  Expect(false, Oracle::CheckTwoHopDuring(after, 3, {1, 3}),
         "two hop during the stream including self");
  Expect(true, Oracle::CheckRecentPostsDuring(oracle, after, 6, 5, {}),
         "recent posts before the stream's post lands");
  Expect(true, Oracle::CheckRecentPostsDuring(oracle, after, 6, 5,
                                              {{104, 60}}),
         "recent posts after the stream's post lands");
  Expect(false, Oracle::CheckRecentPostsDuring(oracle, after, 6, 5,
                                               {{103, 20}}),
         "recent posts during the stream with another creator's post");
  Expect(true,
         after.FriendshipCount() == 6
             ? ""
             : "count " + std::to_string(after.FriendshipCount()),
         "friendship count after the stream");

  std::printf("%s: %d failing case(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
