//! The vanilla OpenWPM JavaScript instrument.
//!
//! Real OpenWPM injects a JavaScript file into every page, which overwrites
//! the APIs to be monitored with wrapper closures that report each access
//! through `document.dispatchEvent` with a randomly generated event id.
//! This module generates that script in MiniJS and registers the privileged
//! content-script listener. The detectable artefacts of Sec. 3.1.4 are all
//! *emergent* from this design:
//!
//! * wrappers are script functions, so `toString()` returns their source
//!   (Listing 1);
//! * the injected top-level function `getInstrumentJS` stays on `window`
//!   (the "+1 added custom function" of Table 2);
//! * wrapper frames appear in `Error.stack`;
//! * ancestor-prototype properties are flattened onto the first prototype
//!   (Fig. 2's pollution);
//! * messaging via the page-reachable `document.dispatchEvent` is
//!   hijackable (Listing 2) and the DOM injection is CSP-blockable.

use std::rc::Rc;

use browser::{Page, RealmWindow};
use jsengine::{Atom, ObjId, Slot, Value};

use crate::instrument::{originating_script, StoreHandle, INSTRUMENT_SCRIPT_NAME};
use crate::records::{JsCallRecord, JsOperation};

/// Deterministically derive the instrument's random event id from the
/// crawler seed (real OpenWPM draws it per page load; determinism here keeps
/// crawls reproducible).
pub fn event_id(seed: u64) -> String {
    let mut x = seed ^ 0xA076_1D64_78BD_642F;
    x ^= x >> 33;
    x = x.wrapping_mul(0xE995_3DFC_9B96_41C9);
    x ^= x >> 29;
    format!("owpm{x:012x}")
}

/// Which vintage of the instrument to generate. OpenWPM 0.10.0 left *two*
/// custom functions on `window` (`jsInstruments` and
/// `instrumentFingerprintingApis`, paper Sec. 3.2); later versions leave
/// one (`getInstrumentJS`). The OpenWPM-specific detectors of Table 6 probe
/// exactly these names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InstrumentVintage {
    /// OpenWPM ≥ 0.11: one leftover function.
    #[default]
    Modern,
    /// OpenWPM 0.10.0: two leftover functions.
    V0_10,
}

/// The instrument's constant function body. The per-visit event id is a
/// *parameter* (`eid`) rather than an embedded literal, which makes this
/// text identical across every visit and every worker — exactly one parse
/// per process through the compile cache. The page-visible behaviour is
/// unchanged: the id still only travels through the live
/// `document.dispatchEvent` call, which is how the hijack/fake-data attacks
/// of Listing 2 learn it.
const INSTRUMENT_BODY: &str = r#"function getInstrumentJS(w, eid) {
  var logSettings = { logCallStack: true };
  function getOriginatingScriptContext(logCallStack) {
    var stack = '';
    try { throw new Error('owpm-probe'); } catch (e) { stack = '' + e.stack; }
    return stack;
  }
  function logCall(symbol, operation, value, callContext) {
    var payload = { symbol: symbol, operation: operation, value: '' + value, callContext: callContext };
    var ev = new CustomEvent(eid, { detail: payload });
    w.document.dispatchEvent(ev);
  }
  function wrapAccessor(ownerProto, firstProto, propName, objectName) {
    var desc = Object.getOwnPropertyDescriptor(ownerProto, propName);
    if (!desc || !desc.get) { return; }
    var originalGetter = desc.get;
    var spec = { enumerable: true };
    spec.get = function () {
      const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
      logCall(objectName + '.' + propName, 'get', '', callContext);
      return originalGetter.call(this);
    };
    Object.defineProperty(firstProto, propName, spec);
  }
  function wrapMethod(ownerProto, firstProto, methodName, objectName) {
    var func = ownerProto[methodName];
    if (typeof func !== 'function') { return; }
    firstProto[methodName] = function () {
      const callContext = getOriginatingScriptContext(!!logSettings.logCallStack);
      logCall(objectName + '.' + methodName, 'call', arguments.length, callContext);
      return func.apply(this, arguments);
    };
  }
  var navProps = ['userAgent', 'webdriver', 'platform', 'language', 'languages', 'plugins', 'appVersion'];
  for (var i = 0; i < navProps.length; i++) {
    wrapAccessor(w.Navigator.prototype, w.Navigator.prototype, navProps[i], 'window.navigator');
  }
  wrapMethod(w.Navigator.prototype, w.Navigator.prototype, 'sendBeacon', 'window.navigator');
  var screenProps = ['width', 'height', 'availWidth', 'availHeight', 'availTop', 'availLeft', 'colorDepth', 'pixelDepth'];
  for (var j = 0; j < screenProps.length; j++) {
    wrapAccessor(w.Screen.prototype, w.Screen.prototype, screenProps[j], 'window.screen');
  }
  var docMethods = ['createElement', 'querySelector', 'getElementById', 'write'];
  for (var k = 0; k < docMethods.length; k++) {
    wrapMethod(w.Document.prototype, w.Document.prototype, docMethods[k], 'window.document');
  }
  // NOTE: ancestor-prototype methods are defined onto the FIRST prototype
  // (Document.prototype) — OpenWPM's prototype pollution (paper Fig. 2).
  var nodeMethods = ['appendChild', 'removeChild'];
  for (var m = 0; m < nodeMethods.length; m++) {
    wrapMethod(w.Node.prototype, w.Document.prototype, nodeMethods[m], 'window.document');
  }
  var etMethods = ['addEventListener'];
  for (var n = 0; n < etMethods.length; n++) {
    wrapMethod(w.EventTarget.prototype, w.Document.prototype, etMethods[n], 'window.document');
  }
  var canvasMethods = ['getContext', 'toDataURL'];
  for (var c = 0; c < canvasMethods.length; c++) {
    wrapMethod(w.HTMLCanvasElement.prototype, w.HTMLCanvasElement.prototype, canvasMethods[c], 'window.HTMLCanvasElement');
  }
}
"#;

/// 0.10.0 split the work over two top-level functions, both of which stayed
/// behind on `window` (the "2 added custom functions" of Table 2).
const V0_10_WRAPPERS: &str = "function jsInstruments(w, eid) { return getInstrumentJS(w, eid); }
function instrumentFingerprintingApis(w, eid) { return getInstrumentJS(w, eid); }
";

/// The constant (event-id-free) portion of the injected script for a
/// vintage. Only one or two unique bodies ever exist per process, so the
/// compile cache reduces instrument parsing to a handful of misses.
pub fn instrument_body_vintage(vintage: InstrumentVintage) -> String {
    match vintage {
        InstrumentVintage::Modern => INSTRUMENT_BODY.to_string(),
        InstrumentVintage::V0_10 => format!("{INSTRUMENT_BODY}{V0_10_WRAPPERS}"),
    }
}

/// The tiny per-visit trigger that hands the freshly drawn event id to the
/// (shared, already-compiled) instrument body. Unique per visit, so it is
/// deliberately *not* routed through the compile cache.
pub fn instrument_trigger(event_id: &str, vintage: InstrumentVintage) -> String {
    match vintage {
        InstrumentVintage::Modern => format!("getInstrumentJS(window, '{event_id}');"),
        InstrumentVintage::V0_10 => {
            format!("jsInstruments(window, '{event_id}');\ndelete window.getInstrumentJS;")
        }
    }
}

/// Generate the complete injected instrumentation script (body + trigger).
/// `event_id` is embedded in the source, exactly like OpenWPM's generated
/// injection.
pub fn instrument_source(event_id: &str) -> String {
    instrument_source_vintage(event_id, InstrumentVintage::Modern)
}

/// Vintage-aware generation (see [`InstrumentVintage`]).
pub fn instrument_source_vintage(event_id: &str, vintage: InstrumentVintage) -> String {
    format!(
        "{}{}\n",
        instrument_body_vintage(vintage),
        instrument_trigger(event_id, vintage)
    )
}

/// Register the content-script side: a privileged listener for the
/// instrument's event id that writes sanitised records. `page_url` is set
/// host-side (outside the page), which is why the fake-data attack cannot
/// spoof the visited site (Sec. 5.2).
pub fn register_sink(page: &mut Page, event_id: String, store: StoreHandle, page_url: String) {
    let sink: browser::EventSink = Rc::new(move |it, etype, event| {
        if etype != event_id {
            return;
        }
        let detail = match it.get_prop(&event, "detail") {
            Ok(d @ Value::Obj(_)) => d,
            _ => return,
        };
        let read = |it: &mut jsengine::Interp, key: &str| -> String {
            it.get_prop(&detail, key)
                .ok()
                .and_then(|v| it.to_string_value(&v).ok())
                .map(|s| s.to_string())
                .unwrap_or_default()
        };
        let symbol = read(it, "symbol");
        let operation = read(it, "operation");
        let value = read(it, "value");
        let call_context = read(it, "callContext");
        // Back-end sanitisation: bound field sizes (defence in depth on top
        // of SQL escaping at persistence time).
        let clamp = |mut s: String| {
            s.truncate(4096);
            s
        };
        // An unknown operation string means the event payload was forged
        // or corrupted; drop the record and count it rather than coercing
        // it into a plausible-looking `get`.
        let operation = match JsOperation::parse(&operation) {
            Some(op) => op,
            None => {
                store.borrow_mut().malformed_events += 1;
                obs::add("instrument.malformed_events", 1);
                obs::emit(obs::Event::new(0, "malformed_event").attr("op", operation));
                return;
            }
        };
        store.borrow_mut().js_calls.push(JsCallRecord {
            symbol: clamp(symbol),
            operation,
            value: clamp(value),
            script_url: clamp(originating_script(&call_context)),
            page_url: page_url.clone(),
            time_ms: it.now_ms,
        });
    });
    page.host.borrow_mut().event_sinks.push(sink);
}

/// Install the vanilla instrument into a page: register the sink and arm
/// the *asynchronous* frame hook that re-runs `getInstrumentJS` in each new
/// frame — on the job queue, which is the race Listing 3 wins — then
/// inject the script via the DOM (CSP applies!).
///
/// Returns `false` when the page's CSP blocked the injection (the page then
/// runs entirely un-instrumented and a `csp_report` was emitted).
pub fn install(page: &mut Page, seed: u64, store: StoreHandle, page_url: String) -> bool {
    install_vintage(page, seed, store, page_url, InstrumentVintage::Modern)
}

/// Vintage-aware installation (fingerprint-surface stability experiments,
/// paper Sec. 3.2 / RQ2).
pub fn install_vintage(
    page: &mut Page,
    seed: u64,
    store: StoreHandle,
    page_url: String,
    vintage: InstrumentVintage,
) -> bool {
    let id = event_id(seed);
    arm(page, id.clone(), store, page_url);
    inject(page, &id, vintage)
}

/// Placeholder event id a pre-installed template is built with; every page
/// cloned from it rebinds `eid` in [`attach`] before any page script runs.
const TEMPLATE_EVENT_ID: &str = "owpm-template";

/// The page-independent half of [`install`], run once into a page that is
/// then frozen as a [`browser::PageTemplate`]: inject the (modern) script
/// with a placeholder event id. Registers no sink and no frame hook.
///
/// Returns the `Navigator.prototype.userAgent` wrapper getter, whose
/// closure reaches the scope that binds `eid` — object ids survive
/// cloning, so [`attach`] finds the clone's copy of that scope through it.
/// `None` when the injection failed (a CSP that blocks it), in which case
/// the page cannot serve as an instrumented template.
pub fn preinstall(page: &mut Page) -> Option<ObjId> {
    if !inject(page, TEMPLATE_EVENT_ID, InstrumentVintage::Modern) {
        return None;
    }
    let nav_proto = page.top.navigator_proto;
    match page.interp.heap.get(nav_proto).props.get("userAgent").map(|p| &p.slot) {
        Some(Slot::Accessor { get: Some(getter), .. }) => Some(*getter),
        _ => None,
    }
}

/// The per-page half of [`install`] for a page cloned from a
/// [`preinstall`]ed template: bind this visit's event id where the
/// template's wrappers read it, then register the sink and arm the frame
/// hook exactly as [`install`] does. The page ends up indistinguishable
/// from one that ran [`install`] with the same `seed` (only the
/// `arguments` object of the finished `getInstrumentJS` call still holds
/// the placeholder; every wrapper has its own `arguments`, so no code can
/// read it).
pub fn attach(page: &mut Page, hook: ObjId, seed: u64, store: StoreHandle, page_url: String) {
    let id = event_id(seed);
    let eid = Atom::intern("eid");
    let mut scope = page.interp.closure_env(hook);
    while let Some(s) = scope {
        let mut s = s.borrow_mut();
        if let Some(slot) = s.vars.get_mut(&eid) {
            *slot = Value::str(&id);
            break;
        }
        scope = s.parent.clone();
    }
    arm(page, id, store, page_url);
}

/// The privileged side shared by [`install`] and [`attach`]: the record
/// sink for `id`, and the frame hook that re-runs `getInstrumentJS` with
/// it in each new frame — scheduled, not synchronous.
fn arm(page: &mut Page, id: String, store: StoreHandle, page_url: String) {
    register_sink(page, id.clone(), store, page_url);
    let hook: browser::FrameHook = Rc::new(move |it, rw: RealmWindow| {
        let g = Value::Obj(it.global);
        if let Ok(f @ Value::Obj(fid)) = it.get_prop(&g, "getInstrumentJS") {
            if it.heap.get(fid).is_callable() {
                let _ = it.call(f, g, &[Value::Obj(rw.window), Value::str(&id)]);
            }
        }
    });
    page.host.borrow_mut().frame_async_hooks.push(hook);
}

/// DOM-inject the instrument with event id `id`. The injected file splits
/// into a constant body (compiled once per process via the shared cache)
/// and a per-visit trigger carrying the event id. Only the DOM injection
/// of the body is CSP-gated — a strict policy still blocks the instrument
/// and emits exactly one csp_report. Returns whether the body went in.
fn inject(page: &mut Page, id: &str, vintage: InstrumentVintage) -> bool {
    let body = instrument_body_vintage(vintage);
    let injected = match jsengine::compile_cached(&body, INSTRUMENT_SCRIPT_NAME) {
        Ok(compiled) => page.dom_inject_script(&compiled).is_ok(),
        Err(_) => false,
    };
    if injected {
        let _ = page.run_script((instrument_trigger(id, vintage), INSTRUMENT_SCRIPT_NAME));
    }
    injected
}

#[cfg(test)]
mod tests {
    use super::*;
    use browser::{CspPolicy, FingerprintProfile, Os, Page, RunMode};
    use netsim::Url;
    use std::cell::RefCell;

    fn fresh_page(csp: Option<CspPolicy>) -> Page {
        Page::new(
            FingerprintProfile::openwpm(Os::Ubuntu1804, RunMode::Regular),
            Url::parse("https://site.test/").unwrap(),
            csp,
        )
    }

    fn fresh_store() -> StoreHandle {
        Rc::new(RefCell::new(crate::records::RecordStore::new()))
    }

    #[test]
    fn event_id_is_deterministic_and_distinct() {
        assert_eq!(event_id(7), event_id(7));
        assert_ne!(event_id(7), event_id(8));
        assert!(event_id(1).starts_with("owpm"));
    }

    #[test]
    fn instrument_script_parses_and_records_access() {
        let mut page = fresh_page(None);
        let store = fresh_store();
        assert!(install(&mut page, 42, store.clone(), "https://site.test/".into()));
        page.run_script(("navigator.userAgent;", "https://site.test/app.js")).unwrap();
        let recs = store.borrow();
        assert_eq!(recs.js_calls.len(), 1);
        let r = &recs.js_calls[0];
        assert_eq!(r.symbol, "window.navigator.userAgent");
        assert_eq!(r.operation, JsOperation::Get);
        assert_eq!(r.script_url, "https://site.test/app.js");
        assert_eq!(r.page_url, "https://site.test/");
    }

    #[test]
    fn wrapped_apis_still_work() {
        let mut page = fresh_page(None);
        let store = fresh_store();
        install(&mut page, 42, store.clone(), "p".into());
        let ua = page.run_script(("navigator.userAgent", "s.js")).unwrap();
        assert!(ua.as_str().unwrap().contains("Firefox"));
        let el = page
            .run_script(("document.createElement('div').tagName", "s.js"))
            .unwrap();
        assert_eq!(el.as_str().unwrap(), "DIV");
        let w = page.run_script(("screen.width", "s.js")).unwrap();
        assert_eq!(w, Value::Num(2560.0));
        assert!(store.borrow().js_calls.len() >= 3);
    }

    #[test]
    fn tostring_of_wrapped_function_leaks_wrapper_source() {
        // Paper Listing 1: instrumented functions no longer render as
        // native code.
        let mut page = fresh_page(None);
        let store = fresh_store();
        install(&mut page, 42, store, "p".into());
        let out = page
            .run_script(("document.createElement.toString()", "s.js"))
            .unwrap();
        let text = out.as_str().unwrap().to_string();
        assert!(!text.contains("[native code]"), "got: {text}");
        assert!(text.contains("getOriginatingScriptContext"), "got: {text}");
    }

    #[test]
    fn get_instrument_js_left_on_window() {
        let mut page = fresh_page(None);
        let store = fresh_store();
        install(&mut page, 42, store, "p".into());
        let v = page.run_script(("typeof window.getInstrumentJS", "s.js")).unwrap();
        assert_eq!(v.as_str().unwrap(), "function");
    }

    #[test]
    fn stack_traces_expose_instrument_frames() {
        let mut page = fresh_page(None);
        let store = fresh_store();
        install(&mut page, 42, store, "p".into());
        let v = page
            .run_script((
                r#"
                var trace = '';
                var saved = document.addEventListener;
                document.addEventListener('x', function () {});
                try { throw new Error('probe'); } catch (e) { trace = '' + e.stack; }
                // Accessing an instrumented getter inside a function whose
                // error we capture mid-wrapper requires the wrapper itself
                // to throw; instead check the wrapper source directly via a
                // stack captured during a wrapped call:
                var captured = '';
                var orig = document.dispatchEvent;
                document.dispatchEvent = function (ev) {
                    captured = ev.detail ? ev.detail.callContext : '';
                    return orig.call(document, ev);
                };
                navigator.userAgent;
                document.dispatchEvent = orig;
                captured
                "#,
                "https://site.test/attack.js",
            ))
            .unwrap();
        let stack = v.as_str().unwrap().to_string();
        assert!(
            stack.contains(INSTRUMENT_SCRIPT_NAME),
            "wrapper frames missing from: {stack}"
        );
    }

    #[test]
    fn prototype_pollution_flattens_ancestor_methods() {
        // Fig. 2: Node.prototype/EventTarget.prototype methods appear as own
        // properties of Document.prototype after instrumentation.
        let mut page = fresh_page(None);
        let store = fresh_store();
        install(&mut page, 42, store, "p".into());
        let v = page
            .run_script((
                "Object.getOwnPropertyNames(Document.prototype).includes('appendChild') && \
                 Object.getOwnPropertyNames(Document.prototype).includes('addEventListener')",
                "s.js",
            ))
            .unwrap();
        assert_eq!(v, Value::Bool(true));
        // An un-instrumented client has them only on the ancestors.
        let mut clean = fresh_page(None);
        let v = clean
            .run_script((
                "Object.getOwnPropertyNames(Document.prototype).includes('appendChild')",
                "s.js",
            ))
            .unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn csp_blocks_installation() {
        let mut page = fresh_page(Some(CspPolicy::strict("/csp")));
        let store = fresh_store();
        assert!(!install(&mut page, 42, store.clone(), "p".into()));
        // No instrumentation: accesses unrecorded, window clean.
        page.run_script(("navigator.userAgent;", "s.js")).unwrap();
        assert!(store.borrow().js_calls.is_empty());
        let v = page.run_script(("typeof window.getInstrumentJS", "s.js")).unwrap();
        assert_eq!(v.as_str().unwrap(), "undefined");
    }
}
